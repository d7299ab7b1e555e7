let ( >>= ) = Mthread.Promise.bind
let return = Mthread.Promise.return
let fail = Mthread.Promise.fail

(* memcached's default item size limit. *)
let max_item = 1 lsl 20

(* Functor over the transport, like Smtp.Make; Core.Apps instantiates it
   per target. *)
module Make (T : Device_sig.TCP) = struct
  let write_string flow s = T.write flow (Bytestruct.of_string s)
  let reader_of flow = Device_sig.Reader.create ~read:(fun () -> T.read flow)

  module Server = struct
    type t = {
      store : Kv.t;
      mutable gets : int;
      mutable sets : int;
      mutable hits : int;
      mutable misses : int;
    }

    let handle t flow =
      let r = reader_of flow in
      let rec loop () =
        Device_sig.Reader.line r >>= function
        | None -> T.close flow
        | Some line -> (
          match String.split_on_char ' ' (String.trim line) with
          | [ "get"; key ] ->
            t.gets <- t.gets + 1;
            (match Kv.get t.store key with
            | Some v ->
              t.hits <- t.hits + 1;
              write_string flow
                (Printf.sprintf "VALUE %s 0 %d\r\n%s\r\nEND\r\n" key (String.length v) v)
            | None ->
              t.misses <- t.misses + 1;
              write_string flow "END\r\n")
            >>= loop
          | [ "set"; key; _flags; _exptime; len ] -> (
            match int_of_string_opt len with
            | Some n when n >= 0 && n <= max_item -> (
              Device_sig.Reader.block_crlf r n >>= function
              | None -> T.close flow
              | Some data ->
                t.sets <- t.sets + 1;
                Kv.set t.store key data;
                write_string flow "STORED\r\n" >>= loop)
            | _ -> write_string flow "CLIENT_ERROR bad data chunk\r\n" >>= loop)
          | [ "delete"; key ] ->
            (if Kv.mem t.store key then begin
               Kv.remove t.store key;
               write_string flow "DELETED\r\n"
             end
             else write_string flow "NOT_FOUND\r\n")
            >>= loop
          | [ "stats" ] ->
            write_string flow
              (Printf.sprintf
                 "STAT cmd_get %d\r\nSTAT cmd_set %d\r\nSTAT get_hits %d\r\nSTAT get_misses %d\r\nSTAT curr_items %d\r\nEND\r\n"
                 t.gets t.sets t.hits t.misses (Kv.size t.store))
            >>= loop
          | [ "quit" ] -> T.close flow
          | _ -> write_string flow "ERROR\r\n" >>= loop)
      in
      loop ()

    let create tcp ~port =
      let t = { store = Kv.create (); gets = 0; sets = 0; hits = 0; misses = 0 } in
      T.listen tcp ~port (fun flow ->
          Mthread.Promise.catch (fun () -> handle t flow) (fun _ -> T.close flow));
      t

    let gets t = t.gets
    let sets t = t.sets
  end

  module Client = struct
    type t = { flow : T.flow; reader : Device_sig.Reader.t }

    let connect tcp ~dst ~port =
      T.connect tcp ~dst ~dst_port:port >>= fun flow ->
      return { flow; reader = reader_of flow }

    exception Protocol_error of string

    let get t key =
      write_string t.flow (Printf.sprintf "get %s\r\n" key) >>= fun () ->
      Device_sig.Reader.line t.reader >>= function
      | None -> fail (Protocol_error "eof")
      | Some "END" -> return None
      | Some header -> (
        match String.split_on_char ' ' header with
        | [ "VALUE"; _k; _flags; len ] -> (
          match int_of_string_opt len with
          | Some n when n >= 0 && n <= max_item -> (
            Device_sig.Reader.block_crlf t.reader n >>= function
            | None -> fail (Protocol_error "truncated value")
            | Some data -> (
              Device_sig.Reader.line t.reader >>= function
              | Some "END" -> return (Some data)
              | _ -> fail (Protocol_error "missing END")))
          | _ -> fail (Protocol_error header))
        | _ -> fail (Protocol_error header))

    let set t ~key ~value =
      write_string t.flow
        (Printf.sprintf "set %s 0 0 %d\r\n%s\r\n" key (String.length value) value)
      >>= fun () ->
      Device_sig.Reader.line t.reader >>= function
      | Some "STORED" -> return ()
      | other -> fail (Protocol_error (match other with Some s -> s | None -> "eof"))

    let delete t key =
      write_string t.flow (Printf.sprintf "delete %s\r\n" key) >>= fun () ->
      Device_sig.Reader.line t.reader >>= function
      | Some "DELETED" -> return true
      | Some "NOT_FOUND" -> return false
      | other -> fail (Protocol_error (match other with Some s -> s | None -> "eof"))

    let stats t =
      write_string t.flow "stats\r\n" >>= fun () ->
      let rec collect acc =
        Device_sig.Reader.line t.reader >>= function
        | None -> fail (Protocol_error "eof")
        | Some "END" -> return (List.rev acc)
        | Some line -> (
          match String.split_on_char ' ' line with
          | [ "STAT"; k; v ] -> collect ((k, v) :: acc)
          | _ -> fail (Protocol_error line))
      in
      collect []

    let close t = T.close t.flow
  end
end
