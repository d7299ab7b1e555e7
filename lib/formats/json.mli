(** JSON (RFC 8259) parser and printer — Table 1 "Formats". *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Parse_error of int * string  (** position, message *)

val parse : string -> t
val to_string : t -> string

(** [escape s] is [s] ready to sit between the quotes of a JSON string:
    quote, backslash and control characters escaped. The one JSON string
    escaper in the tree; every JSON writer uses it. *)
val escape : string -> string

(** Pretty-printed with two-space indentation. *)
val to_string_pretty : t -> string

(** Object member access. *)
val member : string -> t -> t option

val equal : t -> t -> bool
