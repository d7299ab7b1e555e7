module P = Mthread.Promise
open P.Infix

exception Protocol_error of string
exception Host_key_mismatch

type keys = { enc_key : string; mac_key : string }

let u32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * (3 - i))) land 0xff))

(* Per-packet nonce: 12 bytes from the sequence number, so the stream
   cipher restarts deterministically for every packet (what lets
   Ssh_wire.packet_size decrypt the length field on its own). *)
let nonce_of_seq seq = u32 0 ^ u32 (seq lsr 32) ^ u32 (seq land 0xFFFFFFFF)

let cipher_of keys seq =
  match keys with
  | None -> None
  | Some k -> Some (fun s -> Crypto.Chacha20.crypt ~key:k.enc_key ~nonce:(nonce_of_seq seq) s)

let mac_of keys = match keys with None -> None | Some k -> Some k.mac_key

let kexinit prng =
  Ssh_wire.Kexinit
    {
      cookie = String.init 16 (fun _ -> Char.chr (Engine.Prng.int prng 256));
      kex_algs = [ "dh-group-sim" ];
      ciphers = [ "chacha20" ];
      macs = [ "hmac-sha256" ];
    }

let derive ~shared ~transcript =
  let key label = Crypto.Dh.derive_key ~shared ~transcript ~label in
  ( { enc_key = key "c2s-enc"; mac_key = key "c2s-mac" },
    { enc_key = key "s2c-enc"; mac_key = key "s2c-mac" } )

(* Functor over the transport, like Smtp.Make: every read goes through
   one Device_sig.Reader, so the version line and the binary packets
   share a single buffer. *)
module Make (T : Device_sig.TCP) = struct
  type t = {
    flow : T.flow;
    reader : Device_sig.Reader.t;
    mutable tx_seq : int;
    mutable rx_seq : int;
    mutable tx_keys : keys option;
    mutable rx_keys : keys option;
    mutable host_key : string;
  }

  let make flow =
    {
      flow;
      reader = Device_sig.Reader.create ~read:(fun () -> T.read flow);
      tx_seq = 0;
      rx_seq = 0;
      tx_keys = None;
      rx_keys = None;
      host_key = "";
    }

  let send t msg =
    let packet =
      Ssh_wire.seal ~cipher:(cipher_of t.tx_keys t.tx_seq) ~mac_key:(mac_of t.tx_keys)
        ~seq:t.tx_seq (Ssh_wire.encode_msg msg)
    in
    t.tx_seq <- t.tx_seq + 1;
    T.write t.flow (Bytestruct.of_string packet)

  (* One packet: the 4-byte length field, then exactly the rest of the
     packet it announces; Ssh_wire.unseal checks the MAC and framing. *)
  let recv t =
    let cipher = cipher_of t.rx_keys t.rx_seq and mac_key = mac_of t.rx_keys in
    Device_sig.Reader.exactly t.reader 4 >>= function
    | None -> P.return None
    | Some head -> (
      let size = Ssh_wire.packet_size ~cipher ~mac_key head in
      Device_sig.Reader.exactly t.reader (size - 4) >>= function
      | None -> P.return None
      | Some rest -> (
        match Ssh_wire.unseal ~cipher ~mac_key ~seq:t.rx_seq (head ^ rest) with
        | Some (payload, _) ->
          t.rx_seq <- t.rx_seq + 1;
          P.return (Some (Ssh_wire.decode_msg payload))
        | None -> P.fail (Protocol_error "short packet")))

  let expect t what pred =
    recv t >>= function
    | Some msg -> (
      match pred msg with
      | Some v -> P.return v
      | None -> P.fail (Protocol_error ("unexpected message while waiting for " ^ what)))
    | None -> P.fail (Protocol_error ("connection closed waiting for " ^ what))

  (* Version exchange: one CRLF-terminated identification line each way. *)
  let exchange_versions t =
    T.write t.flow (Bytestruct.of_string (Ssh_wire.version_string ^ "\r\n")) >>= fun () ->
    Device_sig.Reader.line t.reader >>= function
    | None -> P.fail (Protocol_error "no version line")
    | Some line ->
      if String.length line < 8 || String.sub line 0 8 <> "SSH-2.0-" then
        P.fail (Protocol_error ("bad version line: " ^ line))
      else P.return line

  let handshake_server sim flow ~host_secret =
    let t = make flow in
    let prng = Engine.Prng.split (Engine.Sim.prng sim) in
    exchange_versions t >>= fun client_version ->
    send t (kexinit prng) >>= fun () ->
    expect t "KEXINIT" (function Ssh_wire.Kexinit _ -> Some () | _ -> None) >>= fun () ->
    expect t "KEXDH_INIT" (function Ssh_wire.Kexdh_init { e } -> Some e | _ -> None) >>= fun e ->
    let kp = Crypto.Dh.generate prng in
    let shared = Crypto.Dh.shared ~secret:kp.Crypto.Dh.secret ~peer_public:e in
    let host_key = Crypto.Sha256.digest ("host-public:" ^ host_secret) in
    let transcript = Printf.sprintf "%s|%s|%d|%d" client_version Ssh_wire.version_string e kp.Crypto.Dh.public in
    let exchange_hash = Crypto.Sha256.digest (Printf.sprintf "%s|%d" transcript shared) in
    let signature = Crypto.Sha256.hmac ~key:host_secret exchange_hash in
    send t (Ssh_wire.Kexdh_reply { host_key; f = kp.Crypto.Dh.public; signature }) >>= fun () ->
    send t Ssh_wire.Newkeys >>= fun () ->
    expect t "NEWKEYS" (function Ssh_wire.Newkeys -> Some () | _ -> None) >>= fun () ->
    let c2s, s2c = derive ~shared ~transcript in
    t.rx_keys <- Some c2s;
    t.tx_keys <- Some s2c;
    t.host_key <- host_key;
    expect t "SERVICE_REQUEST" (function Ssh_wire.Service_request s -> Some s | _ -> None)
    >>= fun service ->
    if service <> "ssh-connection" then P.fail (Protocol_error ("unknown service " ^ service))
    else send t (Ssh_wire.Service_accept service) >>= fun () -> P.return t

  let handshake_client sim flow ?known_host_key () =
    let t = make flow in
    let prng = Engine.Prng.split (Engine.Sim.prng sim) in
    exchange_versions t >>= fun server_version ->
    ignore server_version;
    send t (kexinit prng) >>= fun () ->
    expect t "KEXINIT" (function Ssh_wire.Kexinit _ -> Some () | _ -> None) >>= fun () ->
    let kp = Crypto.Dh.generate prng in
    send t (Ssh_wire.Kexdh_init { e = kp.Crypto.Dh.public }) >>= fun () ->
    expect t "KEXDH_REPLY" (function
      | Ssh_wire.Kexdh_reply { host_key; f; signature } -> Some (host_key, f, signature)
      | _ -> None)
    >>= fun (host_key, f, _signature) ->
    (match known_host_key with
    | Some pinned when pinned <> host_key -> P.fail Host_key_mismatch
    | _ -> P.return ())
    >>= fun () ->
    let shared = Crypto.Dh.shared ~secret:kp.Crypto.Dh.secret ~peer_public:f in
    let transcript =
      Printf.sprintf "%s|%s|%d|%d" Ssh_wire.version_string Ssh_wire.version_string
        kp.Crypto.Dh.public f
    in
    expect t "NEWKEYS" (function Ssh_wire.Newkeys -> Some () | _ -> None) >>= fun () ->
    send t Ssh_wire.Newkeys >>= fun () ->
    let c2s, s2c = derive ~shared ~transcript in
    t.tx_keys <- Some c2s;
    t.rx_keys <- Some s2c;
    t.host_key <- host_key;
    send t (Ssh_wire.Service_request "ssh-connection") >>= fun () ->
    expect t "SERVICE_ACCEPT" (function Ssh_wire.Service_accept _ -> Some () | _ -> None)
    >>= fun () -> P.return t

  let host_key t = t.host_key
  let close t = T.close t.flow
end
