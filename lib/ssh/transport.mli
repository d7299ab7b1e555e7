(** The SSH transport layer: version exchange, algorithm negotiation, DH
    key exchange, per-direction ChaCha20 + HMAC-SHA256 keys, sequence
    numbers, and encrypted packet exchange over a TCP flow. *)

exception Protocol_error of string
exception Host_key_mismatch

(** The transport over any {!Device_sig.TCP}; every read goes through
    one {!Device_sig.Reader}. *)
module Make (T : Device_sig.TCP) : sig
  type t

  (** [handshake_server sim flow ~host_secret] runs the server side of the
      version + kex exchange; resolves once NEWKEYS are in effect. *)
  val handshake_server : Engine.Sim.t -> T.flow -> host_secret:string -> t Mthread.Promise.t

  (** [handshake_client sim flow ~known_host_key] runs the client side,
      verifying the server's host key against the pinned value when given.
      @raise Host_key_mismatch (in the promise). *)
  val handshake_client :
    Engine.Sim.t -> T.flow -> ?known_host_key:string -> unit -> t Mthread.Promise.t

  (** Encrypted message exchange after the handshake. *)
  val send : t -> Ssh_wire.msg -> unit Mthread.Promise.t

  (** [None] at connection end. *)
  val recv : t -> Ssh_wire.msg option Mthread.Promise.t

  (** The server host public key observed during the handshake. *)
  val host_key : t -> string

  val close : t -> unit Mthread.Promise.t
end
