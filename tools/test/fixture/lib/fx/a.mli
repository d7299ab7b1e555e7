(** Fixture for the unused-export report: one value per way of being
    used, and the report each should get. *)

val via_alias : int -> int
(** Used only as [P.via_alias] after [module P = Fixture_lib.A]: used. *)

val via_open : int -> int
(** Used only unqualified after [open Fixture_lib.A]: used. *)

val via_functor : int -> int
(** Named by [F.S] and reached only when [A] is passed to [F.Make]: used. *)

val not_in_sig : int
(** [A] goes to [F.Make], but [F.S] does not name this: section (a). *)

val own_only : int
(** Used only inside a.ml: section (a), marked used in own unit. *)

val test_only : int
(** Used only from the test-like unit: section (b). *)
