(** Append-only copy-on-write B-tree — the reproduction of Baardskeerder,
    the third-party storage library the paper ports to Mirage for the
    dynamic web appliance (§3.5.2, §4.4).

    All mutation is functional: [set]/[delete] rebuild the root-to-leaf
    path in memory; [commit] appends the dirty nodes plus a checksummed
    commit record to the log. Recovery ([open_]) replays record framing
    and trusts only the last valid commit, so torn writes roll back — the
    property the failure-injection tests exercise. Deletes do not rebalance
    (append-only stores reclaim space by {!compact}ion instead). *)

type t

exception Corrupt of string

(** Initialise an empty tree (writes the first commit). *)
val create : Backend.t -> t Mthread.Promise.t

(** Recover from an existing log. @raise Corrupt (in the promise) when no
    valid commit exists. *)
val open_ : Backend.t -> t Mthread.Promise.t

val get : t -> string -> string option Mthread.Promise.t
val set : t -> string -> string -> unit Mthread.Promise.t
val delete : t -> string -> unit Mthread.Promise.t

(** Make all buffered mutations durable. *)
val commit : t -> unit Mthread.Promise.t

(** Fold over keys in [lo, hi) (unbounded when omitted) in order. *)
val fold_range :
  t -> ?lo:string -> ?hi:string -> ('acc -> string -> string -> 'acc) -> 'acc -> 'acc Mthread.Promise.t

(** Number of live bindings. *)
val count : t -> int Mthread.Promise.t

(** Commits so far. *)
val generation : t -> int

(** Bytes of log consumed. *)
val log_bytes : t -> int

(** True when mutations are buffered but not yet committed. *)
val dirty : t -> bool

(** Rewrite the live bindings from the start of the log (space reclaim);
    implies commit. *)
val compact : t -> unit Mthread.Promise.t
