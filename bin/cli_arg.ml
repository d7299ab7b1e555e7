(* Cmdliner converters and output-file handling shared by the subcommands. *)

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

(* A probability in [0, 1]; the comparison is written so that NaN fails. *)
let probability =
  let parse s =
    match float_of_string_opt s with
    | Some p when p >= 0.0 && p <= 1.0 -> Ok p
    | Some _ -> Error (`Msg (Printf.sprintf "%s is not a probability in [0, 1]" s))
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected a number" s))
  in
  Arg.conv (parse, Format.pp_print_float)

(* Open an optional output file before the run starts, so that a path
   that cannot be written costs a one-line error, not a finished run. *)
let open_dest =
  Option.map (fun file ->
      match open_out_bin file with
      | oc -> (file, oc)
      | exception Sys_error msg ->
        Printf.eprintf "mirage_sim: cannot write output: %s\n" msg;
        exit 1)
