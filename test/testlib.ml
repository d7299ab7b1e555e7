(* Shared fixtures for the integration tests: the simulated machine from
   [Core.World] plus checking, payload and property-test helpers. *)

let check = Alcotest.check
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* The simulated host: [Core.World]'s world and host records, with the
   constructors under their historical test names. *)
include Core.World

let make_world = create
let make_host = host

(* Run a promise to completion inside a world. *)
let run w p = Mthread.Promise.run w.sim p

let bs = Bytestruct.of_string

(* Buffered line/block reader over a raw netstack TCP flow. *)
let tcp_reader flow = Device_sig.Reader.create ~read:(fun () -> Netstack.Tcp.read flow)

(* Deterministic pseudo-random payload. *)
let pattern n =
  String.init n (fun i -> Char.chr ((i * 131 + i / 251) land 0xff))

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* The pinned capture scenario (shared with test/golden/gen_capture.exe). *)
module Capture_scenario = Capture_scenario
