module P = Mthread.Promise
open P.Infix

exception Remote_error of string

let public_host_key ~host_secret = Crypto.Sha256.digest ("host-public:" ^ host_secret)

module Make (T : Device_sig.TCP) = struct
  module Transport = Transport.Make (T)

  module Server = struct
    type t = {
      host_secret : string;
      handler : string -> string P.t;
      mutable sessions : int;
      mutable commands : int;
    }

    let serve t transport =
      let rec loop () =
        Transport.recv transport >>= function
        | None -> P.return ()
        | Some (Ssh_wire.Channel_open { channel; window = _ }) ->
          Transport.send transport (Ssh_wire.Channel_confirm { channel; peer = channel })
          >>= loop
        | Some (Ssh_wire.Channel_request_exec { channel; command }) ->
          t.commands <- t.commands + 1;
          Transport.send transport (Ssh_wire.Channel_success { channel }) >>= fun () ->
          t.handler command >>= fun output ->
          Transport.send transport (Ssh_wire.Channel_data { channel; data = output })
          >>= fun () ->
          Transport.send transport (Ssh_wire.Channel_eof { channel }) >>= fun () ->
          Transport.send transport (Ssh_wire.Channel_close { channel }) >>= loop
        | Some (Ssh_wire.Channel_close _) | Some (Ssh_wire.Channel_eof _) -> loop ()
        | Some (Ssh_wire.Disconnect _) -> Transport.close transport
        | Some _ ->
          Transport.send transport
            (Ssh_wire.Disconnect { reason = 2; description = "protocol error" })
          >>= fun () -> Transport.close transport
      in
      loop ()

    let create sim tcp ~port ~host_secret handler =
      let t = { host_secret; handler; sessions = 0; commands = 0 } in
      T.listen tcp ~port (fun flow ->
          t.sessions <- t.sessions + 1;
          P.catch
            (fun () ->
              Transport.handshake_server sim flow ~host_secret:t.host_secret
              >>= fun transport -> serve t transport)
            (fun _ -> T.close flow));
      t

    let sessions t = t.sessions
    let commands_run t = t.commands
  end

  module Client = struct
    type t = { transport : Transport.t; mutable next_channel : int }

    let connect sim tcp ~dst ?(port = 22) ?known_host_key () =
      T.connect tcp ~dst ~dst_port:port >>= fun flow ->
      Transport.handshake_client sim flow ?known_host_key () >>= fun transport ->
      P.return { transport; next_channel = 1 }

    let exec t command =
      let channel = t.next_channel in
      t.next_channel <- channel + 1;
      Transport.send t.transport (Ssh_wire.Channel_open { channel; window = 1 lsl 20 })
      >>= fun () ->
      let output = Buffer.create 64 in
      let rec await_confirm () =
        Transport.recv t.transport >>= function
        | Some (Ssh_wire.Channel_confirm _) ->
          Transport.send t.transport (Ssh_wire.Channel_request_exec { channel; command })
          >>= collect
        | Some (Ssh_wire.Disconnect { description; _ }) -> P.fail (Remote_error description)
        | Some _ -> await_confirm ()
        | None -> P.fail (Remote_error "connection closed")
      and collect () =
        Transport.recv t.transport >>= function
        | Some (Ssh_wire.Channel_success _) -> collect ()
        | Some (Ssh_wire.Channel_data { data; _ }) ->
          Buffer.add_string output data;
          collect ()
        | Some (Ssh_wire.Channel_eof _) -> collect ()
        | Some (Ssh_wire.Channel_close _) -> P.return (Buffer.contents output)
        | Some (Ssh_wire.Disconnect { description; _ }) -> P.fail (Remote_error description)
        | Some _ -> collect ()
        | None -> P.fail (Remote_error "connection closed")
      in
      await_confirm ()

    let host_key t = Transport.host_key t.transport
    let close t = Transport.close t.transport
  end
end
