(* The benchmark's own checks, on a small slice of every workload: one
   seed replays byte-identical inputs and virtual outputs, another seed
   changes the inputs, and a traced unit leaves every virtual output as
   the untraced unit had it. *)

open Perfbench
module C = Common
module R = Runner

let () = C.quick := true

let unit_of w seed = (R.run_unit ~seed w).R.l
let traced_unit_of w seed = (fun (r, _, _) -> r.R.l) (R.run_traced_unit ~seed w)

let tests_for w =
  let a = unit_of w 1 in
  let no_failures () =
    Alcotest.(check int) "failed operations" 0 a.C.failed;
    Alcotest.(check bool) "some operations" true (a.C.ops > 0)
  in
  let same_seed () =
    let b = unit_of w 1 in
    Alcotest.(check (list string)) "input digests" a.C.inputs b.C.inputs;
    Alcotest.(check (list (pair string int))) "virtual outputs" a.C.virt b.C.virt;
    Alcotest.(check int) "operations" a.C.ops b.C.ops
  in
  let other_seed () =
    let b = unit_of w 2 in
    Alcotest.(check bool) "inputs differ" true (a.C.inputs <> b.C.inputs)
  in
  let traced_same () =
    let t = traced_unit_of w 1 in
    Alcotest.(check (list (pair string int))) "virtual outputs" a.C.virt t.C.virt;
    Alcotest.(check int) "failed operations" 0 t.C.failed
  in
  ( w.R.name,
    [
      Alcotest.test_case "no failed operations" `Quick no_failures;
      Alcotest.test_case "same seed, same inputs and outputs" `Quick same_seed;
      Alcotest.test_case "other seed, other inputs" `Quick other_seed;
      Alcotest.test_case "traced outputs equal untraced" `Quick traced_same;
    ] )

let () = Alcotest.run "perfbench" (List.map tests_for R.workloads)
