(** A minimal XMPP-style instant-messaging layer (Table 1 "XMPP"): stream
    setup, message stanzas, presence-based routing and offline storage,
    over the {!Formats.Xml} substrate, as a functor over any
    {!Device_sig.TCP} transport.

    Divergence from RFC 6120: stanzas are framed as newline-delimited
    complete XML documents rather than children of one long-lived stream
    document (our XML parser is whole-document), and there is no SASL/TLS
    — the paper's security layer for unikernels is SSH/SSL as separate
    libraries. *)

type message = { from_jid : string; to_jid : string; body : string }

(** The server refused or garbled the stream handshake. *)
exception Stream_error of string

module Make (T : Device_sig.TCP) : sig
  module Server : sig
    type t

    val create : T.t -> port:int -> domain:string -> unit -> t

    (** Messages routed so far (delivered live or queued offline). *)
    val routed : t -> int

    (** Currently connected bare JIDs. *)
    val online : t -> string list

    (** Stanzas refused (bad addressing / parse errors). *)
    val errors : t -> int
  end

  module Client : sig
    type t

    (** [connect tcp ~dst ~port ~jid ()] opens the stream and announces
        presence; queued offline messages are delivered immediately.
        Fails with {!Stream_error} when the server refuses the stream. *)
    val connect : T.t -> dst:T.ipaddr -> ?port:int -> jid:string -> unit -> t Mthread.Promise.t

    val send : t -> to_jid:string -> body:string -> unit Mthread.Promise.t

    (** Next incoming message ([None] when the stream closes). *)
    val receive : t -> message option Mthread.Promise.t

    val close : t -> unit Mthread.Promise.t
  end
end
