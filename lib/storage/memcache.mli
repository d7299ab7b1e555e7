(** Memcache text protocol (Table 1 "Memcache"): server and client as a
    functor over any {!Device_sig.TCP} transport. Subset: get / set /
    delete / stats, no expiry or flags semantics (accepted and ignored),
    no cas. Values are limited to 1 MiB (memcached's default item size);
    a [set] outside [0, 1 MiB] gets [CLIENT_ERROR bad data chunk] and
    the connection stays open. *)

module Make (T : Device_sig.TCP) : sig
  module Server : sig
    type t

    (** [create tcp ~port] starts serving; storage is an internal {!Kv}. *)
    val create : T.t -> port:int -> t

    val gets : t -> int
    val sets : t -> int
  end

  module Client : sig
    type t

    val connect : T.t -> dst:T.ipaddr -> port:int -> t Mthread.Promise.t
    val get : t -> string -> string option Mthread.Promise.t
    val set : t -> key:string -> value:string -> unit Mthread.Promise.t

    (** True when the key existed. *)
    val delete : t -> string -> bool Mthread.Promise.t

    val stats : t -> (string * string) list Mthread.Promise.t
    val close : t -> unit Mthread.Promise.t
  end
end
