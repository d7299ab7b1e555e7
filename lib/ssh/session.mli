(** SSH session layer: a server executing commands over a secure channel,
    and a client running them — the "let applications trust external
    entities via protocol libraries such as SSL or SSH" of paper §2.3.
    A functor over any {!Device_sig.TCP}; [Core.Apps] instantiates it per
    target. *)

(** The public host key clients should pin for a server holding
    [host_secret]. *)
val public_host_key : host_secret:string -> string

(** The server disconnected or the connection closed mid-command. *)
exception Remote_error of string

module Make (T : Device_sig.TCP) : sig
  module Server : sig
    type t

    (** [create sim tcp ~port ~host_secret handler] serves SSH on [port];
        [handler command] produces the command's output. *)
    val create :
      Engine.Sim.t ->
      T.t ->
      port:int ->
      host_secret:string ->
      (string -> string Mthread.Promise.t) ->
      t

    val sessions : t -> int
    val commands_run : t -> int
  end

  module Client : sig
    type t

    (** [connect sim tcp ~dst ~port ?known_host_key ()]: TCP connect plus
        the full SSH handshake. Fails with {!Transport.Host_key_mismatch}
        when the pinned key does not match. *)
    val connect :
      Engine.Sim.t ->
      T.t ->
      dst:T.ipaddr ->
      ?port:int ->
      ?known_host_key:string ->
      unit ->
      t Mthread.Promise.t

    (** Run one command over a fresh channel; resolves with its output. *)
    val exec : t -> string -> string Mthread.Promise.t

    (** Server host key observed at connect time (for pinning). *)
    val host_key : t -> string

    val close : t -> unit Mthread.Promise.t
  end
end
