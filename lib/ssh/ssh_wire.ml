type msg =
  | Kexinit of { cookie : string; kex_algs : string list; ciphers : string list; macs : string list }
  | Kexdh_init of { e : int }
  | Kexdh_reply of { host_key : string; f : int; signature : string }
  | Newkeys
  | Service_request of string
  | Service_accept of string
  | Channel_open of { channel : int; window : int }
  | Channel_confirm of { channel : int; peer : int }
  | Channel_request_exec of { channel : int; command : string }
  | Channel_success of { channel : int }
  | Channel_data of { channel : int; data : string }
  | Channel_eof of { channel : int }
  | Channel_close of { channel : int }
  | Disconnect of { reason : int; description : string }

exception Decode_error of string

let version_string = "SSH-2.0-mirage_sim_1.0"

(* SSH message numbers (RFC 4250). *)
let num_disconnect = 1
let num_service_request = 5
let num_service_accept = 6
let num_kexinit = 20
let num_newkeys = 21
let num_kexdh_init = 30
let num_kexdh_reply = 31
let num_channel_open = 90
let num_channel_confirm = 91
let num_channel_data = 94
let num_channel_eof = 96
let num_channel_close = 97
let num_channel_request = 98
let num_channel_success = 99

let u32 v =
  String.init 4 (fun i -> Char.chr ((v lsr (8 * (3 - i))) land 0xff))

let str s = u32 (String.length s) ^ s
let name_list l = str (String.concat "," l)

let u64 v = u32 (v lsr 32) ^ u32 (v land 0xFFFFFFFF)

let encode_msg = function
  | Kexinit k ->
    String.make 1 (Char.chr num_kexinit)
    ^ k.cookie ^ name_list k.kex_algs ^ name_list k.ciphers ^ name_list k.macs
  | Kexdh_init k -> String.make 1 (Char.chr num_kexdh_init) ^ u64 k.e
  | Kexdh_reply k ->
    String.make 1 (Char.chr num_kexdh_reply) ^ str k.host_key ^ u64 k.f ^ str k.signature
  | Newkeys -> String.make 1 (Char.chr num_newkeys)
  | Service_request s -> String.make 1 (Char.chr num_service_request) ^ str s
  | Service_accept s -> String.make 1 (Char.chr num_service_accept) ^ str s
  | Channel_open c -> String.make 1 (Char.chr num_channel_open) ^ u32 c.channel ^ u32 c.window
  | Channel_confirm c -> String.make 1 (Char.chr num_channel_confirm) ^ u32 c.channel ^ u32 c.peer
  | Channel_request_exec c ->
    String.make 1 (Char.chr num_channel_request) ^ u32 c.channel ^ str "exec" ^ str c.command
  | Channel_success c -> String.make 1 (Char.chr num_channel_success) ^ u32 c.channel
  | Channel_data c -> String.make 1 (Char.chr num_channel_data) ^ u32 c.channel ^ str c.data
  | Channel_eof c -> String.make 1 (Char.chr num_channel_eof) ^ u32 c.channel
  | Channel_close c -> String.make 1 (Char.chr num_channel_close) ^ u32 c.channel
  | Disconnect d ->
    String.make 1 (Char.chr num_disconnect) ^ u32 d.reason ^ str d.description

(* --- decoding --- *)

type reader = { s : string; mutable off : int }

let need r n = if r.off + n > String.length r.s then raise (Decode_error "truncated message")

let get_u8 r =
  need r 1;
  let v = Char.code r.s.[r.off] in
  r.off <- r.off + 1;
  v

let get_u32 r =
  need r 4;
  let v =
    (Char.code r.s.[r.off] lsl 24)
    lor (Char.code r.s.[r.off + 1] lsl 16)
    lor (Char.code r.s.[r.off + 2] lsl 8)
    lor Char.code r.s.[r.off + 3]
  in
  r.off <- r.off + 4;
  v

let get_u64 r =
  let hi = get_u32 r in
  let lo = get_u32 r in
  (hi lsl 32) lor lo

let get_str r =
  let n = get_u32 r in
  need r n;
  let v = String.sub r.s r.off n in
  r.off <- r.off + n;
  v

let get_fixed r n =
  need r n;
  let v = String.sub r.s r.off n in
  r.off <- r.off + n;
  v

let get_names r = String.split_on_char ',' (get_str r)

let decode_msg payload =
  if payload = "" then raise (Decode_error "empty message");
  let r = { s = payload; off = 0 } in
  let t = get_u8 r in
  if t = num_kexinit then begin
    (* sequence the reads explicitly: record fields evaluate right-to-left *)
    let cookie = get_fixed r 16 in
    let kex_algs = get_names r in
    let ciphers = get_names r in
    let macs = get_names r in
    Kexinit { cookie; kex_algs; ciphers; macs }
  end
  else if t = num_kexdh_init then Kexdh_init { e = get_u64 r }
  else if t = num_kexdh_reply then
    let host_key = get_str r in
    let f = get_u64 r in
    Kexdh_reply { host_key; f; signature = get_str r }
  else if t = num_newkeys then Newkeys
  else if t = num_service_request then Service_request (get_str r)
  else if t = num_service_accept then Service_accept (get_str r)
  else if t = num_channel_open then
    let channel = get_u32 r in
    Channel_open { channel; window = get_u32 r }
  else if t = num_channel_confirm then
    let channel = get_u32 r in
    Channel_confirm { channel; peer = get_u32 r }
  else if t = num_channel_request then begin
    let channel = get_u32 r in
    let kind = get_str r in
    if kind <> "exec" then raise (Decode_error ("unsupported channel request " ^ kind));
    Channel_request_exec { channel; command = get_str r }
  end
  else if t = num_channel_success then Channel_success { channel = get_u32 r }
  else if t = num_channel_data then
    let channel = get_u32 r in
    Channel_data { channel; data = get_str r }
  else if t = num_channel_eof then Channel_eof { channel = get_u32 r }
  else if t = num_channel_close then Channel_close { channel = get_u32 r }
  else if t = num_disconnect then
    let reason = get_u32 r in
    Disconnect { reason; description = get_str r }
  else raise (Decode_error (Printf.sprintf "unknown message type %d" t))

(* --- packet framing (RFC 4253 6): len, padlen, payload, padding, mac --- *)

let mac_len = 32

let seal ~cipher ~mac_key ~seq payload =
  let min_pad = 4 in
  let base = 1 + String.length payload in
  let pad = min_pad + ((8 - ((4 + base + min_pad) mod 8)) mod 8) in
  let plain =
    u32 (base + pad) ^ String.make 1 (Char.chr pad) ^ payload ^ String.make pad '\000'
  in
  let body = match cipher with Some c -> c plain | None -> plain in
  let mac =
    match mac_key with
    | Some key -> Crypto.Sha256.hmac ~key (u32 seq ^ plain)
    | None -> ""
  in
  body ^ mac

let decrypt cipher s = match cipher with Some c -> c s | None -> s
let mac_size mac_key = match mac_key with Some _ -> mac_len | None -> 0

(* With our length-preserving stream cipher the length field decrypts on
   its own, so the reader can size the packet from its first 4 bytes. *)
let packet_size ~cipher ~mac_key head =
  let head = decrypt cipher head in
  let len =
    (Char.code head.[0] lsl 24) lor (Char.code head.[1] lsl 16)
    lor (Char.code head.[2] lsl 8) lor Char.code head.[3]
  in
  if len < 2 || len > 1 lsl 20 then raise (Decode_error "bad packet length");
  4 + len + mac_size mac_key

let unseal ~cipher ~mac_key ~seq buf =
  if String.length buf < 5 then None
  else begin
    let total = packet_size ~cipher ~mac_key (String.sub buf 0 4) in
    if String.length buf < total then None
    else begin
      let len = total - 4 - mac_size mac_key in
      let plain = decrypt cipher (String.sub buf 0 (4 + len)) in
      (match mac_key with
      | Some key ->
        let expect = Crypto.Sha256.hmac ~key (u32 seq ^ plain) in
        if String.sub buf (4 + len) mac_len <> expect then raise (Decode_error "bad MAC")
      | None -> ());
      let pad = Char.code plain.[4] in
      if pad + 1 > len then raise (Decode_error "bad padding");
      Some (String.sub plain 5 (len - 1 - pad), total)
    end
  end
