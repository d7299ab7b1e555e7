(* Cmdliner converters shared by the subcommands. *)

open Cmdliner

(* An integer no smaller than [lo]: out-of-range input is a usage error
   instead of an exception from deep inside the scenario. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "%s is below the minimum of %d" s lo))
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = int_at_least 1
