(* Real (wall-clock) microbenchmarks of the hot paths, via Bechamel: the
   protocol implementations themselves, not the simulation's cost models.
   Includes the paper's 4.2 comparison of the two DNS label-compression
   table implementations. *)

open Bechamel
open Toolkit

let dns_response =
  let zone = Dns.Zone.synthesize ~origin:"bench.zone" ~entries:1000 in
  let db = Dns.Db.of_zone zone in
  Dns.Db.answer db ~id:7
    { Dns.Dns_wire.qname = Dns.Dns_name.of_string "host-123.bench.zone"; qtype = Dns.Dns_wire.A }

let encoded_response = Dns.Dns_wire.encode dns_response

let test_dns_encode_fmap =
  Test.make ~name:"dns encode (functional map)"
    (Staged.stage (fun () -> ignore (Dns.Dns_wire.encode ~impl:Dns.Compress.Fmap dns_response)))

let test_dns_encode_hashtable =
  Test.make ~name:"dns encode (hashtable)"
    (Staged.stage (fun () ->
         ignore (Dns.Dns_wire.encode ~impl:Dns.Compress.Hashtable dns_response)))

let test_dns_decode =
  Test.make ~name:"dns decode"
    (Staged.stage (fun () -> ignore (Dns.Dns_wire.decode encoded_response)))

let checksum_payload = Bytestruct.of_string (String.init 1460 (fun i -> Char.chr (i land 0xff)))

let test_checksum =
  Test.make ~name:"tcp checksum 1460B"
    (Staged.stage (fun () -> ignore (Netstack.Checksum.ones_complement checksum_payload)))

let test_tcp_encode =
  let seg =
    { Netstack.Tcp_wire.src_port = 80; dst_port = 5001;
      seq = Netstack.Tcp_wire.Seq.of_int 12345; ack = Netstack.Tcp_wire.Seq.of_int 99;
      flags = { Netstack.Tcp_wire.flags_none with ack = true; psh = true };
      window = 0xffff; options = []; payload = checksum_payload }
  in
  let src = Netstack.Ipaddr.v4 10 0 0 1 and dst = Netstack.Ipaddr.v4 10 0 0 2 in
  Test.make ~name:"tcp segment encode 1460B"
    (Staged.stage (fun () -> ignore (Netstack.Tcp_wire.encode ~src ~dst seg)))

let ring_page = Bytestruct.create 4096

let test_ring_cycle =
  Test.make ~name:"xen ring request+response cycle"
    (Staged.stage
       (let sring = Xensim.Ring.Sring.init ring_page ~slot_bytes:16 in
        let front = Xensim.Ring.Front.init sring in
        let back = Xensim.Ring.Back.init (Xensim.Ring.Sring.attach ring_page ~slot_bytes:16) in
        fun () ->
          let slot = Xensim.Ring.Front.next_request front in
          Bytestruct.LE.set_uint32 slot 0 1l;
          ignore (Xensim.Ring.Front.push_requests_and_check_notify front);
          ignore (Xensim.Ring.Back.consume_requests back (fun _ -> ()));
          ignore (Xensim.Ring.Back.next_response back);
          ignore (Xensim.Ring.Back.push_responses_and_check_notify back);
          ignore (Xensim.Ring.Front.consume_responses front (fun _ -> ()))))

let test_of_flow_mod =
  let fm =
    { Openflow.Of_wire.fm_match =
        Openflow.Of_wire.match_l2 ~in_port:1 ~dl_src:(Netsim.mac_of_int 1)
          ~dl_dst:(Netsim.mac_of_int 2);
      cookie = 0L; command = `Add; idle_timeout = 60; hard_timeout = 0; priority = 100;
      buffer_id = 1l; fm_actions = [ Openflow.Of_wire.Output 2 ] }
  in
  Test.make ~name:"openflow flow_mod encode"
    (Staged.stage (fun () -> ignore (Openflow.Of_wire.encode ~xid:1 (Openflow.Of_wire.Flow_mod fm))))

let test_http_parse_render =
  let req =
    { Uhttp.Http_wire.meth = Uhttp.Http_wire.GET; path = "/tweets/alice"; version = "HTTP/1.1";
      headers = [ ("host", "example.org"); ("user-agent", "bench") ]; body = "" }
  in
  Test.make ~name:"http request render"
    (Staged.stage (fun () -> ignore (Uhttp.Http_wire.render_request req)))

let test_sha256 =
  let block = String.init 4096 (fun i -> Char.chr (i land 0xff)) in
  Test.make ~name:"sha256 4KB"
    (Staged.stage (fun () -> ignore (Crypto.Sha256.digest block)))

let test_chacha =
  let key = Crypto.Sha256.digest "key" in
  let nonce = String.sub (Crypto.Sha256.digest "n") 0 12 in
  let block = String.init 4096 (fun i -> Char.chr (i land 0xff)) in
  Test.make ~name:"chacha20 4KB"
    (Staged.stage (fun () -> ignore (Crypto.Chacha20.crypt ~key ~nonce block)))

let test_json_parse =
  let doc =
    Formats.Json.to_string
      (Formats.Json.Array
         (List.init 20 (fun i ->
              Formats.Json.Object
                [ ("id", Formats.Json.Number (float_of_int i));
                  ("text", Formats.Json.String "some tweet text here") ])))
  in
  Test.make ~name:"json parse 20-element feed"
    (Staged.stage (fun () -> ignore (Formats.Json.parse doc)))

(* The adversarial case of 4.2: a response full of names sharing long
   suffixes, where the compression table does real work. *)
let big_response =
  let o = Dns.Dns_name.of_string "deeply.nested.zone.example.com" in
  {
    Dns.Dns_wire.id = 1;
    flags = Dns.Dns_wire.response_flags ~aa:true ~rcode:Dns.Dns_wire.No_error;
    questions = [ { Dns.Dns_wire.qname = "q" :: o; qtype = Dns.Dns_wire.ANY } ];
    answers =
      List.init 40 (fun i ->
          {
            Dns.Dns_wire.name = Printf.sprintf "host-%d" i :: o;
            ttl = 60;
            rdata = Dns.Dns_wire.A_data (Netstack.Ipaddr.v4 10 0 (i / 256) (i land 255));
          });
    authorities = [];
    additionals = [];
  }

let test_compress_fmap_big =
  Test.make ~name:"dns encode 40-answer (functional map)"
    (Staged.stage (fun () -> ignore (Dns.Dns_wire.encode ~impl:Dns.Compress.Fmap big_response)))

let test_compress_hash_big =
  Test.make ~name:"dns encode 40-answer (hashtable)"
    (Staged.stage (fun () ->
         ignore (Dns.Dns_wire.encode ~impl:Dns.Compress.Hashtable big_response)))

(* The TCP retransmission queue is appended to once per segment sent.
   With a 256-entry flight (a full 128 KB window of tinygrams), the old
   list representation paid O(n) per append — O(n²) per window — where
   Queue.add is O(1). *)
let test_rtx_list_append =
  Test.make ~name:"rtx append x256 (list @ [x])"
    (Staged.stage (fun () ->
         let l = ref [] in
         for i = 0 to 255 do
           l := !l @ [ i ]
         done;
         ignore !l))

let test_rtx_queue_append =
  Test.make ~name:"rtx append x256 (Queue.add)"
    (Staged.stage (fun () ->
         let q = Queue.create () in
         for i = 0 to 255 do
           Queue.add i q
         done;
         ignore (Queue.length q)))

let all_tests =
  [
    test_dns_encode_fmap; test_dns_encode_hashtable; test_compress_fmap_big;
    test_compress_hash_big; test_dns_decode; test_checksum; test_tcp_encode; test_ring_cycle;
    test_of_flow_mod; test_http_parse_render; test_sha256; test_chacha; test_json_parse;
    test_rtx_list_append; test_rtx_queue_append;
  ]

(* ---- observability guards ----

   Every observability plane keeps one contract. With the plane off (the
   state every figure runs in) a probe site costs one load and one
   predictable branch. Turning the plane on only accumulates: it draws
   nothing from the PRNG, schedules nothing and charges no vCPU, so
   Figure 8's stdout is byte-identical with the plane off and on.

   [obs_guard] (run by `dune runtest`) checks both halves for every
   plane at once: the table of disabled probe sites below, measured in
   one loop against one pinned budget, then Figure 8 with every plane
   off and again with all of them on. [obs_planes] (run by tools/ci.sh)
   repeats the Figure 8 check one plane at a time, so a difference names
   its plane. Both are no-ops when a plane is already on for the run
   (--trace, --profile, --flight): the sites would not be disabled, and
   re-enabling the tracer would resize and clear its event ring. *)

let guard_budget_ns = 25.0
let guard_iters = 5_000_000

(* best-of-5 per-op cost *)
let guard_best f =
  let per_op () =
    let t0 = Sys.time () in
    for i = 1 to guard_iters do
      ignore (Sys.opaque_identity (f i))
    done;
    (Sys.time () -. t0) *. 1e9 /. float_of_int guard_iters
  in
  let m = ref infinity in
  for _ = 1 to 5 do
    m := Float.min !m (per_op ())
  done;
  !m

let guard_baseline i = i land 0xff

(* Every kind of disabled probe site in the tree, written the way the
   tree writes it. Built with every plane off, so the metric handles are
   detached and no capture is attached, exactly as in a figure run. *)
let probe_sites () =
  let counter = Trace.Metrics.counter "guard_counter" in
  let summary = Trace.Metrics.summary "guard_summary" in
  let cap : Netsim.Capture.t option ref = ref None in
  let frame = Bytestruct.create 64 in
  [
    ( "trace-emit",
      fun i ->
        if Trace.enabled () then
          Trace.emit ~cat:Trace.Net ~payload:[ ("i", Trace.Int i) ] "guard.event";
        i land 0xff );
    ( "metrics-inc",
      fun i ->
        Trace.Metrics.inc counter 1;
        i land 0xff );
    ( "metrics-observe",
      fun i ->
        Trace.Metrics.observe summary i;
        i land 0xff );
    ( "prof-account",
      fun i ->
        if Trace.Prof.enabled () then Trace.Prof.account ~dom:0 i;
        i land 0xff );
    ( "prof-frame",
      fun i ->
        let f () = i land 0xff in
        Trace.Prof.with_frame "guard" f );
    ( "dpath-measure",
      fun i ->
        let f () = i land 0xff in
        Trace.Dpath.measure Trace.Dpath.Tcp ~vcpu_ns:i f );
    ( "flight-note",
      fun i ->
        if Trace.Flight.enabled () then Trace.Flight.note ~dom:0 ~cat:Trace.Net "guard.note";
        i land 0xff );
    (* a site serving several planes, like the scheduler's dispatch *)
    ( "multi-plane",
      fun i ->
        let planes = Trace.planes () in
        if planes <> 0 then begin
          if planes land Trace.plane_trace <> 0 then Trace.emit ~cat:Trace.Sched "guard.dispatch";
          if planes land Trace.plane_flight <> 0 then Trace.Flight.watermark "guard" i
        end;
        i land 0xff );
    ( "capture-record",
      fun i ->
        (match !cap with
        | None -> ()
        | Some c -> Netsim.Capture.record c ~dir:Netsim.Tx ~link:0 ~time_ns:i frame);
        i land 0xff );
  ]

let unless_planes_on f =
  if Trace.planes () <> 0 then
    Printf.printf "  skipped: an observability plane is enabled for this run\n"
  else f ()

let measure_sites () =
  let base = guard_best guard_baseline in
  let over =
    List.filter_map
      (fun (name, site) ->
        let cost = Float.max 0.0 (guard_best site -. base) in
        Util.emit ~figure:"obs-guard" ~metric:(name ^ "-site") ~unit_:"ns/op" cost;
        Printf.printf "  disabled %-15s site: %5.2f ns/op (baseline %.2f, budget %.1f)\n" name cost
          base guard_budget_ns;
        if cost > guard_budget_ns then Some name else None)
      (probe_sites ())
  in
  if over <> [] then begin
    Printf.printf "  FAIL: disabled-site overhead exceeds budget: %s\n" (String.concat ", " over);
    exit 1
  end
  else Printf.printf "  OK: every disabled site within budget\n"

let probe_site_guard () =
  Util.header "Observability guard (every disabled probe site)";
  unless_planes_on measure_sites

let capture_stdout f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let tmp = Filename.temp_file ~temp_dir:(Sys.getcwd ()) "fig8" ".out" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect f ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved);
  let ic = open_in_bin tmp in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  s

type plane = { p_name : string; p_on : unit -> unit; p_off : unit -> unit }

(* Wire capture is a plane too, though not a [Trace] one: every world
   made while it is on gets a capture recording its whole bridge. *)
let capture_plane =
  {
    p_name = "capture";
    p_on = (fun () -> Util.capture_worlds := true);
    p_off =
      (fun () ->
        Util.capture_worlds := false;
        Util.close_world_captures ());
  }

let trace_plane p_name ~enable ~disable ~reset =
  {
    p_name;
    p_on = enable;
    p_off =
      (fun () ->
        disable ();
        reset ());
  }

let planes =
  let open Trace in
  [
    trace_plane "metrics" ~enable:Metrics.enable ~disable:Metrics.disable ~reset:Metrics.reset;
    trace_plane "prof" ~enable:Prof.enable ~disable:Prof.disable ~reset:Prof.reset;
    trace_plane "dpath" ~enable:Dpath.enable ~disable:Dpath.disable ~reset:Dpath.reset;
    trace_plane "flight" ~enable:(fun () -> Flight.enable ()) ~disable:Flight.disable
      ~reset:Flight.reset;
    capture_plane;
  ]

(* Figure 8's stdout with the [on] planes switched on, and the frames
   the attached captures saw. *)
let fig8_with on =
  List.iter (fun p -> p.p_on ()) on;
  let out = capture_stdout Fig8.run in
  let frames =
    List.fold_left (fun acc c -> acc + Netsim.Capture.matched c) 0 !Util.world_captures
  in
  List.iter (fun p -> p.p_off ()) on;
  (out, frames)

(* Figure 8 once with every plane off, then once per [(label, planes)]
   case with those planes on. A capture that saw no frames would make
   its case vacuous, so that fails too. *)
let fig8_invariance ~figure cases =
  (* fig8 runs several times under capture; restore the --out records
     afterwards so its data points are not repeated in a full-suite
     bench.json *)
  let saved_results = !Util.results in
  let reference, _ = fig8_with [] in
  let verdicts = List.map (fun (label, on) -> (label, on, fig8_with on)) cases in
  Util.results := saved_results;
  let oks =
    List.map
      (fun (label, on, (out, frames)) ->
        let same = out = reference in
        Util.emit ~figure ~metric:(label ^ "/fig8-byte-identical") ~unit_:"bool"
          (if same then 1.0 else 0.0);
        let vacuous = List.memq capture_plane on && frames = 0 in
        if vacuous then
          Printf.printf "  FAIL: %s: the attached captures observed no frames (check is vacuous)\n"
            label
        else if same then
          Printf.printf "  OK: figure 8 stdout byte-identical with %s off/on (%d bytes%s)\n" label
            (String.length out)
            (if frames > 0 then Printf.sprintf ", %d frames captured" frames else "")
        else Printf.printf "  FAIL: turning on %s changed figure 8 output\n" label;
        same && not vacuous)
      verdicts
  in
  if List.mem false oks then exit 1

let obs_guard () =
  Util.header "Observability guard (every disabled probe site, figure-8 invariance)";
  unless_planes_on (fun () ->
      measure_sites ();
      fig8_invariance ~figure:"obs-guard"
        [ (String.concat "+" (List.map (fun p -> p.p_name) planes), planes) ])

let obs_planes () =
  Util.header "Observability planes (figure-8 invariance, one plane at a time)";
  unless_planes_on (fun () ->
      fig8_invariance ~figure:"obs-planes" (List.map (fun p -> (p.p_name, [ p ])) planes))

let run () =
  Util.header "Microbenchmarks (real wall-clock, Bechamel)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results = Analyze.all ols (Instance.monotonic_clock) results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] ->
            Util.emit ~figure:"micro" ~metric:name ~unit_:"ns/op" ns;
            Printf.printf "  %-38s %10.1f ns/op\n" name ns
          | _ -> Printf.printf "  %-38s (no estimate)\n" name)
        results)
    all_tests;
  Printf.printf
    "  (4.2: raw speed of the two compression tables is workload-dependent here; the\n";
  Printf.printf
    "   functional map's advantage is structural - immunity to the hash-collision\n";
  Printf.printf "   denial-of-service the paper describes)\n";
  probe_site_guard ()
