module type S = sig
  val via_functor : int -> int
end

module Make (X : S) : sig
  val run : int -> int
end
