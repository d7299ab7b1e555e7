module P = Mthread.Promise
open P.Infix

type message = { from_jid : string; to_jid : string; body : string }

let render_message m =
  Formats.Xml.to_string
    (Formats.Xml.Element
       ( "message",
         [ ("from", m.from_jid); ("to", m.to_jid) ],
         [ Formats.Xml.Element ("body", [], [ Formats.Xml.Text m.body ]) ] ))

let parse_stanza line = Formats.Xml.parse line

exception Stream_error of string

(* Functor over the transport, like Smtp.Make; Core.Apps instantiates it
   per target. *)
module Make (T : Device_sig.TCP) = struct
  let write_line flow s = T.write flow (Bytestruct.of_string (s ^ "\n"))
  let reader_of flow = Device_sig.Reader.create ~read:(fun () -> T.read flow)

  module Server = struct
    type t = {
      domain : string;
      sessions : (string, T.flow) Hashtbl.t;
      offline : (string, message list) Hashtbl.t;  (* newest first *)
      mutable routed : int;
      mutable errors : int;
    }

    let bare jid = match String.index_opt jid '/' with Some i -> String.sub jid 0 i | None -> jid

    let deliver t m =
      t.routed <- t.routed + 1;
      match Hashtbl.find_opt t.sessions (bare m.to_jid) with
      | Some flow -> P.async (fun () -> write_line flow (render_message m))
      | None ->
        let q = match Hashtbl.find_opt t.offline (bare m.to_jid) with Some l -> l | None -> [] in
        Hashtbl.replace t.offline (bare m.to_jid) (m :: q)

    let handle t flow =
      let reader = reader_of flow in
      let jid = ref None in
      let cleanup () =
        (* A reconnect may have replaced this session; remove the JID only
           while it still routes to this flow. *)
        (match !jid with
        | Some j -> (
          match Hashtbl.find_opt t.sessions j with
          | Some f when f == flow -> Hashtbl.remove t.sessions j
          | _ -> ())
        | None -> ());
        T.close flow
      in
      let rec loop () =
        Device_sig.Reader.line reader >>= function
        | None -> cleanup ()
        | Some line -> (
          match parse_stanza line with
          | exception Formats.Xml.Parse_error _ ->
            t.errors <- t.errors + 1;
            loop ()
          | Formats.Xml.Element ("stream", attrs, _) -> (
            match (List.assoc_opt "from" attrs, List.assoc_opt "to" attrs) with
            | Some from, Some target when target = t.domain ->
              let j = bare from in
              jid := Some j;
              Hashtbl.replace t.sessions j flow;
              write_line flow
                (Formats.Xml.to_string
                   (Formats.Xml.Element ("stream", [ ("from", t.domain); ("id", j) ], [])))
              >>= fun () ->
              (* flush offline queue *)
              let queued = match Hashtbl.find_opt t.offline j with Some l -> List.rev l | None -> [] in
              Hashtbl.remove t.offline j;
              let rec flush = function
                | [] -> loop ()
                | m :: rest -> write_line flow (render_message m) >>= fun () -> flush rest
              in
              flush queued
            | _ ->
              t.errors <- t.errors + 1;
              write_line flow
                (Formats.Xml.to_string
                   (Formats.Xml.Element ("stream-error", [ ("reason", "bad-stream") ], [])))
              >>= fun () -> cleanup ())
          | Formats.Xml.Element ("message", attrs, _) as el -> (
            match (!jid, List.assoc_opt "to" attrs) with
            | Some from, Some to_jid ->
              let body =
                match Formats.Xml.child "body" el with Some b -> Formats.Xml.text b | None -> ""
              in
              deliver t { from_jid = from; to_jid; body };
              loop ()
            | _ ->
              t.errors <- t.errors + 1;
              loop ())
          | Formats.Xml.Element ("presence", _, _) -> loop () (* already implied by stream *)
          | _ ->
            t.errors <- t.errors + 1;
            loop ())
      in
      loop ()

    let create tcp ~port ~domain () =
      let t =
        { domain; sessions = Hashtbl.create 16; offline = Hashtbl.create 16; routed = 0; errors = 0 }
      in
      T.listen tcp ~port (fun flow ->
          P.catch (fun () -> handle t flow) (fun _ -> T.close flow));
      t

    let routed t = t.routed
    let online t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.sessions [])
    let errors t = t.errors
  end

  module Client = struct
    type t = { flow : T.flow; reader : Device_sig.Reader.t; jid : string }

    let connect tcp ~dst ?(port = 5222) ~jid () =
      T.connect tcp ~dst ~dst_port:port >>= fun flow ->
      let reader = reader_of flow in
      (* the stream handshake names the server domain, which clients
         conventionally embed in the JID: user@domain *)
      let domain =
        match String.index_opt jid '@' with
        | Some i -> String.sub jid (i + 1) (String.length jid - i - 1)
        | None -> ""
      in
      write_line flow
        (Formats.Xml.to_string
           (Formats.Xml.Element ("stream", [ ("from", jid); ("to", domain) ], [])))
      >>= fun () ->
      Device_sig.Reader.line reader >>= function
      | None -> P.fail (Stream_error "connection closed during handshake")
      | Some line -> (
        match parse_stanza line with
        | Formats.Xml.Element ("stream", _, _) -> P.return { flow; reader; jid }
        | Formats.Xml.Element ("stream-error", attrs, _) ->
          P.fail
            (Stream_error (match List.assoc_opt "reason" attrs with Some r -> r | None -> "unknown"))
        | _ -> P.fail (Stream_error "unexpected handshake reply")
        | exception Formats.Xml.Parse_error _ -> P.fail (Stream_error "garbled handshake"))

    let send t ~to_jid ~body =
      write_line t.flow (render_message { from_jid = t.jid; to_jid; body })

    let rec receive t =
      Device_sig.Reader.line t.reader >>= function
      | None -> P.return None
      | Some line -> (
        match parse_stanza line with
        | Formats.Xml.Element ("message", attrs, _) as el ->
          let get k = match List.assoc_opt k attrs with Some v -> v | None -> "" in
          let body =
            match Formats.Xml.child "body" el with Some b -> Formats.Xml.text b | None -> ""
          in
          P.return (Some { from_jid = get "from"; to_jid = get "to"; body })
        | _ -> receive t
        | exception Formats.Xml.Parse_error _ -> receive t)

    let close t = T.close t.flow
  end
end
