(* Orchestration: run units of a workload for a time budget, check their
   outputs, and turn the ledgers into the end-to-end and per-layer
   metrics. *)

module C = Common

type workload = { name : string; run_unit : seed:int -> unit }

let workloads =
  [
    { name = "tcp_bulk"; run_unit = Tcp_bulk.run_unit };
    { name = "dns_query"; run_unit = Dns_query.run_unit };
    { name = "blk_rw"; run_unit = Blk_rw.run_unit };
    { name = "http_churn"; run_unit = Http_churn.run_unit };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* A detached thread that raises is an operation that raised. *)
let () = Mthread.Promise.set_async_exception_hook (fun _ -> C.fail 1)

let median = C.median

(* [cal]: the median calibration slice measured around the unit's
   measured phases. *)
type unit_result = { l : C.ledger; cal : float }

(* Top of the major heap after the first unit: a fixed amount of work, so
   the figure does not depend on how many units the budget allowed (at
   exit it spread 10 % between runs, after the first unit 1 %). *)
let first_top_heap = ref None

(* One unit, from a collected heap so a previous unit's 2 GiB disk is gone
   before the next is made. An exception out of a unit fails it. *)
let run_unit ~seed w =
  Gc.full_major ();
  C.ledger := C.new_ledger ();
  (try w.run_unit ~seed
   with e ->
     Printf.eprintf "perfbench: %s unit raised %s\n%!" w.name (Printexc.to_string e);
     C.fail 1);
  let l = !C.ledger in
  let cal = median !(l.C.cal_run) in
  l.C.virt <- List.rev (("engine.events", l.C.events) :: l.C.virt);
  l.C.inputs <- List.rev l.C.inputs;
  Printf.eprintf
    "perfbench: unit setup_s=%.4f run_s=%.4f cal_s=%.5f setup_rel=%.1f run_rel=%.1f ops=%d failed=%d\n%!"
    l.C.setup_s l.C.run_s cal l.C.setup_rel l.C.run_rel l.C.ops l.C.failed;
  if !first_top_heap = None then first_top_heap := Some (Gc.quick_stat ()).Gc.top_heap_words;
  { l; cal }

(* The traced unit turns on the metrics registry, the profiler and the
   datapath ledger, and (through [Common.traced]) a capture and a tap on
   every bridge. *)
let run_traced_unit ~seed w =
  C.traced := true;
  C.replay := C.new_replay seed;
  Trace.Metrics.reset ();
  Trace.Prof.reset ();
  Trace.Dpath.reset ();
  Trace.Metrics.enable ();
  Trace.Prof.enable ();
  Trace.Dpath.enable ();
  let r =
    Fun.protect
      ~finally:(fun () ->
        C.traced := false;
        Trace.Dpath.disable ();
        Trace.Prof.disable ();
        Trace.Metrics.disable ())
      (fun () -> run_unit ~seed w)
  in
  let dpath = Trace.Dpath.stats () in
  Trace.Metrics.reset ();
  Trace.Prof.reset ();
  Trace.Dpath.reset ();
  (r, dpath, !C.replay)

let started = C.now ()

(* Units until their measured phases add up to [budget] seconds (at least
   [min_units]), stopping early only to keep the process well inside its
   wall-clock limit. *)
let repeat ~budget ~min_units ~deadline ~run_s f =
  let rec go acc spent n =
    if (n >= min_units && spent >= budget) || (n >= 1 && C.now () -. started > deadline) then
      List.rev acc
    else
      let r = f () in
      go (r :: acc) (spent +. run_s r) (n + 1)
  in
  go [] 0.0 0

(* ---- pinned virtual outputs ---- *)

type pins = { held_out : int; table : (string * (int * (string * int) list) list) list }

let load_pins file =
  let num = function Formats.Json.Number f -> int_of_float f | _ -> failwith "pins: number" in
  let obj = function Formats.Json.Object kv -> kv | _ -> failwith "pins: object" in
  let j = Formats.Json.parse (In_channel.with_open_bin file In_channel.input_all) in
  let member k = match Formats.Json.member k j with Some v -> v | None -> failwith ("pins: " ^ k) in
  {
    held_out = num (member "held_out_seed");
    table =
      List.map
        (fun (w, seeds) ->
          ( w,
            List.map
              (fun (s, outs) -> (int_of_string s, List.map (fun (k, v) -> (k, num v)) (obj outs)))
              (obj seeds) ))
        (obj (member "pins"));
  }

let pins_json ~held_out table =
  let open Formats.Json in
  to_string_pretty
    (Object
       [
         ("held_out_seed", Number (float_of_int held_out));
         ( "pins",
           Object
             (List.map
                (fun (w, seeds) ->
                  ( w,
                    Object
                      (List.map
                         (fun (s, outs) ->
                           (string_of_int s, Object (List.map (fun (k, v) -> (k, Number (float_of_int v))) outs)))
                         seeds) ))
                table) );
       ])

let pinned pins ~workload ~seed =
  Option.bind (List.assoc_opt workload pins.table) (List.assoc_opt seed)

(* ---- checking ---- *)

type verdict = { attempted : int; failed : int; mismatched_units : int }

(* Every unit's virtual outputs must equal the pinned ones (for a shipped
   seed) or the first unit's; a unit that differs fails all its operations. *)
let verdict ~reference units =
  List.fold_left
    (fun v r ->
      let l = r.l in
      let drift = l.C.virt <> reference in
      if drift then
        Printf.eprintf "perfbench: virtual outputs drifted from %s\n%!"
          (String.concat ", "
             (List.filter_map
                (fun (k, v) ->
                  match List.assoc_opt k reference with
                  | Some p when p = v -> None
                  | p ->
                    Some
                      (Printf.sprintf "%s=%d (want %s)" k v
                         (Option.fold ~none:"none" ~some:string_of_int p)))
                l.C.virt));
      {
        attempted = v.attempted + l.C.ops + l.C.failed;
        failed = v.failed + l.C.failed + (if drift then l.C.ops else 0);
        mismatched_units = (v.mismatched_units + if drift then 1 else 0);
      })
    { attempted = 0; failed = 0; mismatched_units = 0 }
    units

(* ---- metrics ---- *)

let count l name = Option.value ~default:0.0 (Hashtbl.find_opt l.C.counts name)
let ratio a b = if b > 0.0 then a /. b else 0.0

(* The calibration slice time of a run: the median over its units. *)
let cal_s units = median (List.map (fun r -> r.cal) units)

(* Each phase is timed relative to the calibration slices taken around it
   (see [Common.cal_slice]); a unit's relative time is the sum over its
   phases, and a run reports the median over its units, in reference
   seconds ([Common.cal_ref_s]). *)
let run_rel units = median (List.map (fun r -> r.l.C.run_rel) units)

let end_to_end units =
  let cal_ref_s = C.cal_ref_s in
  let run_rel = run_rel units in
  let top = Option.value ~default:0 !first_top_heap in
  [
    ("run_s", run_rel *. cal_ref_s, "s");
    ("run_rel", run_rel, "ratio");
    ( "setup_s",
      median (List.map (fun r -> r.l.C.setup_rel) units) *. cal_ref_s,
      "s" );
    ("ops_per_s", median (List.map (fun r -> float_of_int r.l.C.ops /. r.l.C.run_rel) units) /. cal_ref_s, "1/s");
    ("peak_heap_mb", float_of_int (top * (Sys.word_size / 8)) /. 1e6, "MB");
  ]

let per_layer ~untraced ~traced ~dpath ~(replay : C.replay) =
  let t = List.hd traced in
  let l = t.l in
  let c = count l in
  (* Host times here are raw wall seconds, like the kernel timings they
     are compared with; counts repeat exactly. *)
  let run = median (List.map (fun r -> r.l.C.run_s) untraced) in
  let med f = median (List.map f untraced) in
  let events = float_of_int l.C.events in
  let ops = float_of_int (max 1 l.C.ops) in
  let cks_frame, cks_kb = Kernels.checksum (C.Reservoir.to_list replay.C.l4) in
  let answer_ns = Kernels.dns_answer (C.Reservoir.to_list replay.C.queries) in
  let push_pop_ns = Kernels.eventq_push_pop (C.Reservoir.to_list replay.C.depths) in
  let ring_ns = Kernels.ring_cycle () in
  let pktbuf_ns = Kernels.pktbuf_alloc_release () in
  let l4_frames = float_of_int replay.C.l4_frames in
  let frames = float_of_int (replay.C.tx_frames + replay.C.rx_frames) in
  let queries = c "dns.queries_served" in
  let attributed_ns =
    (cks_frame *. l4_frames)
    +. (answer_ns *. queries)
    +. (push_pop_ns *. events)
    +. (ring_ns *. (frames +. c "devices.blkif.requests"))
    +. (pktbuf_ns *. float_of_int replay.C.tx_frames)
  in
  let hop h =
    match List.find_opt (fun s -> s.Trace.Dpath.h_hop = h) dpath with
    | Some s when s.Trace.Dpath.h_pkts > 0 -> s.Trace.Dpath.h_alloc_b /. float_of_int s.Trace.Dpath.h_pkts
    | _ -> 0.0
  in
  let dpath_metrics =
    List.map
      (fun h -> (Printf.sprintf "dpath.%s.alloc_b_per_pkt" (Trace.Dpath.hop_name h), hop h, "B"))
      Trace.Dpath.all_hops
  in
  [
    ("engine.events", events, "count");
    ("engine.ns_per_event", ratio (run *. 1e9) events, "ns");
    ("engine.pending_max", float_of_int l.C.pending_max, "count");
    ("engine.eventq.push_pop_ns", push_pop_ns, "ns");
    ("mthread.promises_per_op", float_of_int l.C.promises /. ops, "count");
    ("xensim.vcpu.run_virt_ms", c "xensim.vcpu.run_virt_ms", "ms");
    ("xensim.vcpu.wait_virt_ms", c "xensim.vcpu.wait_virt_ms", "ms");
    ("xensim.ring.cycle_ns", ring_ns, "ns");
    ("pktbuf.alloc_release_ns", pktbuf_ns, "ns");
    ("pktbuf.outstanding_end", c "pktbuf.outstanding_end", "count");
    ("netsim.frames", c "netsim.frames", "count");
    ("netsim.wire_mb", c "netsim.wire_mb", "MB");
    ("netstack.tcp.segments_sent", c "netstack.tcp.segments_sent", "count");
    ("netstack.tcp.retransmissions", c "netstack.tcp.retransmissions", "count");
    ("netstack.tcp.goodput_ratio", ratio (c "app_bytes") (float_of_int replay.C.tcp_payload), "ratio");
    ("netstack.tcp.conns", c "netstack.tcp.conns", "count");
    ("netstack.checksum.ns_per_kb", cks_kb, "ns");
    ("netstack.checksum.share", ratio (cks_frame *. l4_frames) (run *. 1e9), "ratio");
    ("netstack.udp.datagrams", c "netstack.udp.datagrams", "count");
  ]
  @ dpath_metrics
  @ [
      ("dns.queries_served", queries, "count");
      ("dns.decode_failures", c "dns.decode_failures", "count");
      ("dns.memo.hit_ratio", ratio (c "dns.memo.hits") (c "dns.memo.hits" +. c "dns.memo.misses"), "ratio");
      ("dns.answer_ns", answer_ns, "ns");
      ("dns.alloc_b_per_query", ratio (med (fun r -> r.l.C.alloc_bytes)) queries, "B");
      ("uhttp.requests", c "uhttp.requests", "count");
      ("blockdev.disk.create_s", med (fun r -> count r.l "blockdev.disk.create_s"), "s");
      ("blockdev.disk.reads", c "blockdev.disk.reads", "count");
      ("blockdev.disk.writes", c "blockdev.disk.writes", "count");
      ("devices.blkif.requests", c "devices.blkif.requests", "count");
      ( "blockdev.cache.hit_ratio",
        ratio (c "blockdev.cache.hits") (c "blockdev.cache.hits" +. c "blockdev.cache.misses"),
        "ratio" );
      ("blockdev.cache.resident_pages", c "blockdev.cache.resident_pages", "count");
      ("blockdev.direct.run_s", med (fun r -> count r.l "blockdev.direct.run_s"), "s");
      ("blockdev.buffered.run_s", med (fun r -> count r.l "blockdev.buffered.run_s"), "s");
      ("gc.alloc_mb", med (fun r -> r.l.C.alloc_bytes) /. 1e6, "MB");
      ("gc.minor", med (fun r -> float_of_int r.l.C.minor), "count");
      ("gc.major", med (fun r -> float_of_int r.l.C.major), "count");
      ("bench.trace_overhead_pct", 100.0 *. (ratio (run_rel traced) (run_rel untraced) -. 1.0), "%");
      ("bench.attributed_pct", 100.0 *. ratio attributed_ns (run *. 1e9), "%");
      ("bench.cal_s", cal_s untraced, "s");
    ]

(* ---- output ---- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    (max 1 attempted) failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit_) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit_)
          metrics))
