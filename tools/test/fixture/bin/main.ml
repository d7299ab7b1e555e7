module P = Fixture_lib.A
module M = Fixture_lib.F.Make (Fixture_lib.A)

let () =
  let open Fixture_lib.A in
  print_int (P.via_alias (via_open (M.run 1)))
