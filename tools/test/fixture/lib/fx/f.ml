module type S = sig
  val via_functor : int -> int
end

module Make (X : S) = struct
  let run x = X.via_functor x
end
