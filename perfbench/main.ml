(* perfbench: host cost of the simulator on four workloads drawn from the
   paper's Figures 8-13.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer ones (from an untraced and a traced half of the budget). The
   last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

     main.exe --emit-pins 1,2,3

   prints the virtual-time outputs of one unit of every workload per seed,
   in the format of pins.json; the last seed is the held-out one. *)

open Perfbench
module C = Common
module R = Runner

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let pins_file = "perfbench/pins.json"
let emit_pins = ref ""
let warmup_units = 2

let specs =
  [
    ("--workload", Arg.Set_string workload, "NAME workload to run");
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_int seconds, "S measured seconds");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ("--emit-pins", Arg.Set_string emit_pins, "SEEDS print pins for these comma-separated seeds");
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let emit () =
  let seeds = List.map int_of_string (String.split_on_char ',' !emit_pins) in
  let table =
    List.map
      (fun w -> (w.R.name, List.map (fun s -> (s, (R.run_unit ~seed:s w).R.l.C.virt)) seeds))
      R.workloads
  in
  print_endline (R.pins_json ~held_out:(List.nth seeds (List.length seeds - 1)) table)

let bench w =
  let pins =
    match R.load_pins pins_file with
    | p -> p
    | exception e -> die "cannot read pins from %s: %s" pins_file (Printexc.to_string e)
  in
  let budget = float_of_int !seconds in
  let deadline = 120.0 in
  let run_s r = r.R.l.C.run_s in
  (* The first units of a process run slower while its heap and the
     allocator grow to their working size (on blk_rw the first two by about
     15 %, on the others by at most 4 %): their outputs are checked, their
     times are not used. *)
  let warmup = List.init warmup_units (fun _ -> R.run_unit ~seed:!seed w) in
  let untraced, traced =
    if !trace = 0 then
      (R.repeat ~budget ~min_units:3 ~deadline ~run_s (fun () -> R.run_unit ~seed:!seed w), [])
    else
      let half = budget /. 2.0 in
      ( R.repeat ~budget:half ~min_units:2 ~deadline ~run_s (fun () -> R.run_unit ~seed:!seed w),
        R.repeat ~budget:half ~min_units:1 ~deadline
          ~run_s:(fun (r, _, _) -> run_s r)
          (fun () -> R.run_traced_unit ~seed:!seed w) )
  in
  let traced_units = List.map (fun (r, _, _) -> r) traced in
  let units = warmup @ untraced @ traced_units in
  let first = List.hd units in
  let reference =
    match R.pinned pins ~workload:w.R.name ~seed:!seed with
    | Some p -> p
    | None -> first.R.l.C.virt
  in
  let v = R.verdict ~reference units in
  let input_drift = List.filter (fun u -> u.R.l.C.inputs <> first.R.l.C.inputs) units in
  let failed =
    v.R.failed + List.fold_left (fun a u -> a + u.R.l.C.ops) 0 input_drift
  in
  let metrics =
    if !trace = 0 then R.end_to_end untraced
    else
      let _, dpath, replay = List.hd traced in
      R.per_layer ~untraced ~traced:traced_units ~dpath ~replay
  in
  let wall f = R.median (List.map f untraced) in
  Printf.printf
    "perfbench: workload=%s seed=%d trace=%d units=%d wall_run_s=%.4f wall_setup_s=%.4f \
     run_rel=%.4f bench.cal_s=%.5f pinned=%b held_out=%b drifted_units=%d\n"
    w.R.name !seed !trace (List.length units)
    (wall (fun u -> u.R.l.C.run_s))
    (wall (fun u -> u.R.l.C.setup_s))
    (R.run_rel untraced)
    (R.cal_s untraced)
    (R.pinned pins ~workload:w.R.name ~seed:!seed <> None)
    (!seed = pins.R.held_out) v.R.mismatched_units;
  print_endline
    (R.result_line ~correct:(failed = 0) ~attempted:v.R.attempted ~failed metrics)

let () =
  Arg.parse specs (fun a -> die "unexpected argument %s" a) "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !emit_pins <> "" then emit ()
  else
    match R.find !workload with
    | None ->
      die "unknown workload %S (known: %s)" !workload
        (String.concat ", " (List.map (fun w -> w.R.name) R.workloads))
    | Some _ when !trace <> 0 && !trace <> 1 -> die "--trace must be 0 or 1"
    | Some _ when !seconds < 1 -> die "--seconds must be at least 1"
    | Some w -> bench w
