(** SSH-2 binary packet protocol and message codec (RFC 4253 subset) — the
    Table 1 "SSH" library's wire layer.

    Implemented subset: version exchange, KEXINIT, a Diffie-Hellman key
    exchange, NEWKEYS, service request, one session channel with exec and
    data, disconnect. Host-key signatures are HMACs under the host secret
    (simulation-grade; see DESIGN.md). *)

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

(** Message payload codec (inside the packet framing). *)
val encode_msg : msg -> string

val decode_msg : string -> msg

(** {1 Packet framing} *)

(** [seal ~cipher ~mac_key ~seq payload] builds
    [len ^ padlen ^ payload ^ padding] encrypted, followed by
    [HMAC(seq || plaintext)]. [cipher = None] before NEWKEYS. *)
val seal :
  cipher:(string -> string) option -> mac_key:string option -> seq:int -> string -> string

(** [packet_size ~cipher ~mac_key head] is the total size of the packet
    (length field, body and MAC) whose first 4 bytes are [head].
    @raise Decode_error when the length field is out of range. *)
val packet_size : cipher:(string -> string) option -> mac_key:string option -> string -> int

(** Incremental unseal from a buffer: [None] when more bytes are needed.
    Returns the payload and the bytes consumed.
    @raise Decode_error on MAC failure or bad framing. *)
val unseal :
  cipher:(string -> string) option ->
  mac_key:string option ->
  seq:int ->
  string ->
  (string * int) option

val version_string : string
