(** Simple key-value store (Table 1's "Simple key-value"): an in-memory
    map with a flat serialised representation that can be persisted to and
    recovered from a storage backend. The DNS appliance's in-memory zone
    filesystem is built on this. *)

type t

val create : unit -> t
val of_pairs : (string * string) list -> t

val get : t -> string -> string option
val set : t -> string -> string -> unit
val remove : t -> string -> unit
val mem : t -> string -> bool
val size : t -> int

(** Keys in lexicographic order. *)
val keys : t -> string list

(** {1 Serialisation} — format: magic, count, then length-prefixed pairs. *)

val serialize : t -> Bytestruct.t

(** @raise Invalid_argument on corrupt input. *)
val deserialize : Bytestruct.t -> t

(** Persist to sector 0 onward of a backend. Fails if too large. *)
val persist : t -> Backend.t -> unit Mthread.Promise.t

val load : Backend.t -> t Mthread.Promise.t
