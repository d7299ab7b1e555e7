(* dns_query: Figure 10's queryperf closed loop. 32 queries stay
   outstanding over UDP against each server engine (Bind-like, NSD-like,
   Mirage with and without memoisation) for zones of 100 to 10000
   entries; a warm-up precedes the counted window. An operation is one
   query answered; every answer is decoded and must carry the query's id
   and exactly the zone's A record for the name asked. *)

module P = Mthread.Promise
module C = Common
module W = Dns.Dns_wire

let concurrency = 32
let warmup_ns = Engine.Sim.ms 30
let window_ns = Engine.Sim.ms 50
let give_up_ns = Engine.Sim.sec 30

let engines =
  [
    ("bind", Dns.Server.Bind_like, Platform.linux_pv);
    ("nsd", Dns.Server.Nsd_like, Platform.linux_pv);
    ("mirage", Dns.Server.Mirage { memoize = false }, Platform.xen_extent);
    ("mirage-memo", Dns.Server.Mirage { memoize = true }, Platform.xen_extent);
  ]

let zones = [ 100; 1000; 10000 ]

(* Names to ask, drawn once per configuration; the load cycles through
   them. *)
let draws_per_config = 16384

let origin = "bench.zone"

(* The record [Zone.synthesize] gives host-[k]: the independent oracle. *)
let expected_ip k = Netstack.Ipaddr.v4 10 ((k lsr 16) land 0xff) ((k lsr 8) land 0xff) (k land 0xff)

let answer_ok ~id ~qname ~k resp =
  match W.decode resp with
  | exception W.Decode_error _ -> false
  | m -> (
    m.W.id = id
    &&
    match m.W.answers with
    | [ { W.name; rdata = W.A_data ip; _ } ] ->
      Dns.Dns_name.equal name qname && Netstack.Ipaddr.compare ip (expected_ip k) = 0
    | _ -> false)

let measure ~seed ~label ~engine ~platform ~entries =
  let w, client, server_ip, srv, db, names =
    C.setup (fun () ->
        let w = C.make_world ~seed:(C.derive seed label) in
        let server = C.make_host w ~platform ~name:"dns" ~ip:"10.0.0.53" () in
        let client =
          C.make_host w ~platform:Platform.linux_native ~account_cpu:false ~name:"queryperf"
            ~ip:"10.0.0.9" ()
        in
        let db = Dns.Db.of_zone (Dns.Zone.synthesize ~origin ~entries) in
        let srv =
          Core.Apps.Net.Dns.create w.C.sim ~dom:server.C.dom
            ~udp:(Netstack.Stack.udp server.C.stack) ~db ~engine ()
        in
        let names =
          C.draws ~seed ~label:(label ^ "/names") ~n:draws_per_config ~bound:entries
        in
        (w, client, Netstack.Stack.address server.C.stack, srv, db, names))
  in
  C.input_digest (C.digest_ints names);
  let udp = Netstack.Stack.udp client.C.stack in
  let responses = ref 0 and at_warm = ref 0 in
  let measure_from = Engine.Sim.now w.C.sim + warmup_ns in
  let stop_at = measure_from + window_ns in
  let next = ref 0 in
  (* One port per in-flight slot; its answer restarts the slot. *)
  let outstanding = Array.make concurrency (0, 0, []) in
  let send_query slot =
    let n = !next in
    incr next;
    let k = names.(n mod draws_per_config) in
    let qname = Dns.Dns_name.of_string (Printf.sprintf "host-%d.%s" k origin) in
    let id = n land 0xffff in
    outstanding.(slot) <- (id, k, qname);
    let bytes = W.encode (W.query ~id qname W.A) in
    if !C.traced then
      C.Reservoir.add !C.replay.C.queries (fun () -> (Bytestruct.to_string bytes, db));
    P.async (fun () ->
        Netstack.Udp.sendto udp ~src_port:(20000 + slot) ~dst:server_ip ~dst_port:53 bytes)
  in
  let finished, finish_u = P.wait () in
  let live = ref concurrency in
  for slot = 0 to concurrency - 1 do
    Netstack.Udp.listen udp ~port:(20000 + slot) (fun ~src:_ ~src_port:_ ~dst_port:_ ~payload ->
        incr responses;
        let id, k, qname = outstanding.(slot) in
        if answer_ok ~id ~qname ~k payload then C.ok 1 else C.fail 1;
        if Engine.Sim.now w.C.sim < stop_at then send_query slot
        else begin
          decr live;
          if !live = 0 && P.wakener_pending finish_u then P.wakeup finish_u ()
        end);
    send_query slot
  done;
  P.async (fun () ->
      P.bind (P.sleep w.C.sim warmup_ns) (fun () ->
          at_warm := !responses;
          P.return ()));
  (match C.run w.C.sim (P.with_timeout w.C.sim give_up_ns (fun () -> finished)) with
  | Ok () -> ()
  | Error _ -> C.fail !live);
  C.virt (label ^ "/answers-in-window") (!responses - !at_warm);
  C.virt (label ^ "/window-ns") (Engine.Sim.now w.C.sim - measure_from);
  C.count "dns.queries_served" (float_of_int (Core.Apps.Net.Dns.queries_served srv));
  C.count "dns.decode_failures" (float_of_int (Core.Apps.Net.Dns.decode_failures srv));
  (match Core.Apps.Net.Dns.memo srv with
  | Some m ->
    C.count "dns.memo.hits" (float_of_int (Dns.Memo.hits m));
    C.count "dns.memo.misses" (float_of_int (Dns.Memo.misses m))
  | None -> ());
  List.iter
    (fun h -> C.count "netstack.udp.datagrams" (float_of_int (Netsim.Nic.frames_sent h.C.nic)))
    w.C.hosts;
  C.finish_world ~label w

let run_unit ~seed =
  List.iter
    (fun entries ->
      List.iter
        (fun (name, engine, platform) ->
          measure ~seed ~label:(Printf.sprintf "%s/%d" name entries) ~engine ~platform ~entries)
        (C.slice engines))
    (C.slice zones)
