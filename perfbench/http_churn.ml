(* http_churn: Figure 13's static serving. Open-loop httperf sessions of
   one GET per connection, spread round-robin over the servers of each
   configuration: Apache on Linux scaled up (1 host, 6 vCPUs), across
   (2x3, 6x1), and six single-vCPU Mirage unikernels. An operation is one
   connection served; its reply must be a 200 carrying exactly the
   server's page. *)

module P = Mthread.Promise
module C = Common
module H = Uhttp.Http_wire
module Perf = Core.Apps.Net.Httperf

let offered_rate = 1500.0
let sessions = 1200
let page_bytes = 4096

let configs =
  let apache n vcpus = List.init n (fun _ -> (Platform.linux_pv, vcpus, `Apache)) in
  [
    ("apache-1x6", apache 1 6);
    ("apache-2x3", apache 2 3);
    ("apache-6x1", apache 6 1);
    ("mirage-6", List.init 6 (fun _ -> (Platform.xen_extent, 1, `Mirage)));
  ]

let page ~seed ~label i =
  let prng = Engine.Prng.create ~seed:(C.derive seed (label, i)) () in
  String.init page_bytes (fun _ -> Char.chr (0x21 + Engine.Prng.int prng 94))

let serve ~seed (label, servers) =
  let w, client, targets =
    C.setup (fun () ->
        let w = C.make_world ~seed:(C.derive seed label) in
        let client =
          C.make_host w ~platform:Platform.linux_native ~account_cpu:false
            ~bandwidth_bps:10_000_000_000 ~name:"load" ~ip:"10.0.0.9" ()
        in
        let targets =
          List.mapi
            (fun i (platform, vcpus, kind) ->
              let h =
                C.make_host w ~platform ~vcpus ~name:(label ^ string_of_int i)
                  ~ip:(Printf.sprintf "10.0.0.%d" (80 + i))
                  ()
              in
              let body = page ~seed ~label i in
              let tcp = Netstack.Stack.tcp h.C.stack in
              let served =
                match kind with
                | `Apache ->
                  let a =
                    Core.Apps.Net.Baseline.apache_static w.C.sim ~dom:h.C.dom ~tcp ~port:80
                      ~page:body ()
                  in
                  fun () -> Core.Apps.Net.Baseline.requests_served a
                | `Mirage ->
                  let s =
                    Core.Apps.Net.Http.create w.C.sim ~dom:h.C.dom
                      ~per_request_cost_ns:Baseline.Appliances.mirage_static_cost_ns ~tcp ~port:80
                      (fun _req -> P.return (H.response ~status:200 body))
                  in
                  fun () -> Core.Apps.Net.Http.requests_served s
              in
              (Netstack.Stack.address h.C.stack, body, served))
            servers
        in
        (w, client, targets))
  in
  C.input_digest (String.concat "" (List.map (fun (_, body, _) -> body) targets));
  let n = List.length targets in
  let t0 = Engine.Sim.now w.C.sim in
  let good = ref 0 and bad = ref 0 in
  let session body client =
    C.count "netstack.tcp.conns" 1.0;
    P.bind (Core.Apps.Net.Http_client.get client "/index.html") (fun resp ->
        if resp.H.status = 200 && String.equal resp.H.resp_body body then incr good else incr bad;
        P.return ())
  in
  let load =
    P.all
      (List.map
         (fun (ip, body, _) ->
           Perf.run w.C.sim (Netstack.Stack.tcp client.C.stack) ~dst:ip ~port:80
             ~rate:(offered_rate /. float_of_int n)
             ~sessions:(sessions / n) ~session_timeout_ns:(Engine.Sim.sec 5) ~counter:(ref 0)
             ~session:(session body) ())
         targets)
  in
  (match C.run w.C.sim load with
  | Ok results ->
    let errors = List.fold_left (fun a r -> a + r.Uhttp.Httperf.errors) 0 results in
    C.ok !good;
    C.fail (!bad + max errors (n * (sessions / n) - !good - !bad));
    C.virt (label ^ "/replies") !good
  | Error _ -> C.fail (n * (sessions / n)));
  C.virt (label ^ "/elapsed-ns") (Engine.Sim.now w.C.sim - t0);
  List.iter (fun (_, _, served) -> C.count "uhttp.requests" (float_of_int (served ()))) targets;
  C.finish_world ~label w

let run_unit ~seed = List.iter (serve ~seed) (C.slice configs)
