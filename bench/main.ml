(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index). Run everything with
   `dune exec bench/main.exe`, or a subset: `dune exec bench/main.exe -- fig10 table2`.
   Pass `--trace out.jsonl` to record a full event trace of the run and
   print a latency summary at the end (shared plumbing in Util). *)

let experiments =
  [
    ("fig5", "domain boot time, sync toolstack", Fig5_6.fig5);
    ("fig6", "guest startup, async toolstack", Fig5_6.fig6);
    ("fig7a", "thread creation time", Fig7.fig7a);
    ("fig7b", "thread wakeup jitter CDF", Fig7.fig7b);
    ("fig8", "TCP throughput + flood ping", Fig8.run);
    ("fig9", "random block read throughput", Fig9.run);
    ("fig10", "DNS throughput vs zone size", Fig10.run);
    ("fig11", "OpenFlow controller throughput", Fig11.run);
    ("fig12", "dynamic web appliance", Fig12_13.fig12);
    ("fig13", "static web serving", Fig12_13.fig13);
    ("table1", "library inventory", Tables.table1);
    ("table2", "image sizes under DCE", Tables.table2);
    ("fig14", "lines of code comparison", Tables.fig14);
    ("sealing", "specialisation & sealing summary", Tables.sealing_and_config);
    ("ablation", "design-choice ablations", Ablation.run);
    ("chaos", "TCP chaos matrix: fault schedules x seeds", Chaos.run);
    ("fleet", "LB + autoscaler under a 100x open-loop ramp", Fleet_bench.run);
    ("bootstorm", "10^2..10^4-domain cold-start storms to first response", Bootstorm.run);
    ("dpath", "per-packet per-hop datapath cost attribution", Dpath.run);
    ("capture", "wire-capture overhead on the Figure 8 transfer", Capture_bench.run);
    ("micro", "real-time microbenchmarks", Micro.run);
    ("obs-guard", "disabled probe sites + figure-8 invariance, all planes on", Micro.obs_guard);
    ("obs-planes", "figure-8 invariance, one observability plane at a time", Micro.obs_planes);
  ]

let run requested trace_out out profile_out flight_dir =
  let to_run =
    if requested = [] then experiments
    else
      List.filter_map
        (fun name ->
          match List.find_opt (fun (n, _, _) -> n = name) experiments with
          | Some e -> Some e
          | None ->
            Printf.eprintf "unknown experiment %s; known: %s\n" name
              (String.concat " " (List.map (fun (n, _, _) -> n) experiments));
            exit 1)
        requested
  in
  Util.with_out out (fun () ->
      Util.with_profile profile_out flight_dir (fun () ->
      Util.with_trace trace_out (fun () ->
          Printf.printf "Unikernels (ASPLOS'13) reproduction — benchmark harness\n";
          Printf.printf "All appliance measurements run in simulated virtual time;\n";
          Printf.printf "the 'micro' suite measures real wall-clock of the implementations.\n";
          List.iter
            (fun (name, descr, f) ->
              ignore name;
              ignore descr;
              f ())
            to_run)))

let () =
  let open Cmdliner in
  let doc = "Regenerate the paper's tables and figures in simulated virtual time" in
  let names = Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT") in
  let cmd =
    Cmd.v (Cmd.info "bench" ~doc)
      Term.(
        const run $ names $ Util.trace_term $ Util.out_term $ Util.profile_term
        $ Util.flight_term)
  in
  exit (Cmd.eval cmd)
