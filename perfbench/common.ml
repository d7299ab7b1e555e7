(* Shared plumbing for the host-cost benchmark: seeds, host clocks, the
   event-loop driver, simulated worlds, and the per-unit ledger every
   workload fills in.

   A workload "unit" is one deterministic pass over the workload's
   configurations. Each configuration builds its world (set-up, timed by
   [setup]) and then drives the simulator until its load finishes (the
   measured phase, timed by [run]). Virtual-time outputs of a unit are a
   pure function of the workload seed. *)

module P = Mthread.Promise

let now = Unix.gettimeofday

(* ---- seeds ---- *)

(* Every PRNG a workload uses is derived from the workload seed and a
   label naming its role, so one seed fixes all inputs and distinct roles
   get independent streams. *)
let derive seed label = Hashtbl.hash (seed, label) land 0x3fffffff

(* ---- the ledger of one unit ---- *)

type ledger = {
  mutable setup_s : float;
  mutable run_s : float;
  mutable setup_rel : float;  (** set-ups, each relative to the slices around it *)
  mutable run_rel : float;  (** measured phases, each relative to the slices around it *)
  mutable ops : int;
  mutable failed : int;
  mutable virt : (string * int) list;  (** virtual-time outputs, in order *)
  mutable inputs : string list;  (** digests of the generated inputs *)
  mutable events : int;
  mutable pending_max : int;
  mutable alloc_bytes : float;
  mutable minor : int;
  mutable major : int;
  mutable promises : int;  (** promises created in measured phases *)
  cal_run : float list ref;  (** calibration slice times around measured phases *)
  counts : (string, float) Hashtbl.t;  (** per-layer counts and spans *)
}

let new_ledger () =
  {
    setup_s = 0.0;
    run_s = 0.0;
    setup_rel = 0.0;
    run_rel = 0.0;
    ops = 0;
    failed = 0;
    virt = [];
    inputs = [];
    events = 0;
    pending_max = 0;
    alloc_bytes = 0.0;
    minor = 0;
    major = 0;
    promises = 0;
    cal_run = ref [];
    counts = Hashtbl.create 32;
  }

let ledger = ref (new_ledger ())
let ok n = !ledger.ops <- !ledger.ops + n
let fail n = !ledger.failed <- !ledger.failed + n
let virt name v = !ledger.virt <- (name, v) :: !ledger.virt
let input_digest s = !ledger.inputs <- Digest.to_hex (Digest.string s) :: !ledger.inputs

let count name v =
  let c = !ledger.counts in
  Hashtbl.replace c name (v +. Option.value ~default:0.0 (Hashtbl.find_opt c name))

(* Host seconds of a span around one call into a layer. *)
let span name f =
  let t0 = now () in
  let r = f () in
  count name (now () -. t0);
  r

(* ---- calibration ----

   On a shared 2-vCPU x86-64 cloud VM (Intel Xeon), other tenants slow
   the simulator by up to 1.7x for seconds to minutes at a time, in CPU
   time, not steal: they contend for the cores' caches and memory
   bandwidth. A time is only comparable to another as a ratio to work of
   fixed size done at the same moment, and the work has to feel the
   contention the way the workload does. A calibration slice is written
   against the standard library only, so it does not change when the
   program does. Its first part is a small discrete-event loop: a binary
   heap of timed closures, a hash table of per-flow state, and a
   short-lived buffer per event. Its second part churns the minor heap.
   In paired probes on that VM (the same units divided by each candidate
   slice, over two minutes per workload) the two parts together tracked
   every workload's run time better than either alone, than block copies
   or than a pointer chase through 32 MiB: the spread between 6-unit
   medians was 3-9 %, against 5-21 % raw. Slices bracket every measured
   phase and every set-up, outside the timed spans, and each phase is
   stated relative to the median slice taken with it. *)

type cal_event = { at : int; run : unit -> unit }

let cal_heap = Array.make 1024 { at = 0; run = ignore }
let cal_len = ref 0
let cal_flows : (int, int array) Hashtbl.t = Hashtbl.create 4096
let cal_clock = ref 0

let cal_push e =
  let rec up i =
    let p = (i - 1) / 2 in
    if i > 0 && cal_heap.(p).at > e.at then begin
      cal_heap.(i) <- cal_heap.(p);
      up p
    end
    else cal_heap.(i) <- e
  in
  up !cal_len;
  incr cal_len

let cal_pop () =
  let top = cal_heap.(0) in
  decr cal_len;
  let n = !cal_len in
  let last = cal_heap.(n) in
  let rec down i =
    let l = (2 * i) + 1 in
    if l >= n then cal_heap.(i) <- last
    else
      let c = if l + 1 < n && cal_heap.(l + 1).at < cal_heap.(l).at then l + 1 else l in
      if cal_heap.(c).at < last.at then begin
        cal_heap.(i) <- cal_heap.(c);
        down c
      end
      else cal_heap.(i) <- last
  in
  if n > 0 then down 0;
  top

(* Each event touches its flow's state, allocates a buffer, and schedules
   the flow's next event: the heap stays at 512 live entries. *)
let rec cal_event flow =
  {
    at = !cal_clock + 1 + ((flow * 7919) + !cal_clock) land 1023;
    run =
      (fun () ->
        let buf = Bytes.make (64 + (flow land 255)) 'c' in
        let st =
          match Hashtbl.find_opt cal_flows flow with
          | Some st -> st
          | None ->
            let st = Array.make 8 0 in
            Hashtbl.replace cal_flows flow st;
            st
        in
        st.(flow land 7) <- st.(flow land 7) + Bytes.length buf;
        cal_push (cal_event (((flow * 31) + st.(0)) land 4095)));
  }

let () =
  for f = 0 to 511 do
    cal_push (cal_event f)
  done

(* The churn part: short-lived lists of small tuples, filtered and
   dropped, which is what the simulator's per-packet headers, options and
   closures ask of the minor heap. *)
let churn_part () =
  let kept = ref 0 in
  for i = 1 to 200 do
    let l = List.init 100 (fun j -> (i, j, Some j)) in
    kept := !kept + List.length (List.filter (fun (_, j, _) -> j land 1 = 0) l)
  done;
  ignore (Sys.opaque_identity !kept)

(* Host seconds of one calibration slice: 2000 events, then the churn. *)
let cal_slice () =
  let t0 = now () in
  for _ = 1 to 2000 do
    let e = cal_pop () in
    cal_clock := e.at;
    e.run ()
  done;
  churn_part ();
  now () -. t0

(* Reference seconds are seconds on a machine where one slice takes this
   long, about what it takes on a quiet 2-core x86-64 VM. *)
let cal_ref_s = 0.001

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2) else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* The times of three slices. *)
let calibrate () = List.init 3 (fun _ -> cal_slice ())

(* A phase of [dt] host seconds relative to the median of the slices
   taken just before and just after it. *)
let relative dt ~before ~after = dt /. median (before @ after)

let setup f =
  let l = !ledger in
  let before = calibrate () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  let after = calibrate () in
  l.setup_s <- l.setup_s +. dt;
  l.setup_rel <- l.setup_rel +. relative dt ~before ~after;
  r

(* ---- tracing switch and the layer-replay reservoirs ----

   With [traced] on, every world attaches a [Netsim.Capture] and a bridge
   tap, the driver samples the event-queue depth, and the DNS client keeps
   the queries it sends. The reservoirs keep a uniform sample of what each
   layer actually saw, for the kernel replay after the unit. *)

let traced = ref false

(* [quick] runs a small slice of each workload (two configurations, a
   64 MiB device): the benchmark's own tests use it to check determinism
   without paying for a full unit. *)
let quick = ref false

let slice xs = if !quick then List.filteri (fun i _ -> i = 0 || i = List.length xs - 1) xs else xs

module Reservoir = struct
  type 'a t = { cap : int; mutable seen : int; items : 'a option array; rng : Random.State.t }

  let create ~seed cap =
    { cap; seen = 0; items = Array.make cap None; rng = Random.State.make [| seed |] }

  (* [add r f] offers one item; [f] makes it only if the sample keeps it. *)
  let add r f =
    if r.seen < r.cap then r.items.(r.seen) <- Some (f ())
    else begin
      let j = Random.State.int r.rng (r.seen + 1) in
      if j < r.cap then r.items.(j) <- Some (f ())
    end;
    r.seen <- r.seen + 1

  let to_list r = Array.to_list r.items |> List.filter_map Fun.id
end

type replay = {
  l4 : string Reservoir.t;  (** TCP/UDP segments (L4 bytes) leaving a NIC *)
  queries : (string * Dns.Db.t) Reservoir.t;  (** DNS queries and their zone *)
  depths : int Reservoir.t;  (** event-queue depths seen by the driver *)
  mutable tx_frames : int;
  mutable rx_frames : int;
  mutable l4_frames : int;  (** TCP/UDP frames sent or delivered: checksum work *)
  mutable tcp_payload : int;
}

let new_replay seed =
  {
    l4 = Reservoir.create ~seed:(derive seed "l4") 4096;
    queries = Reservoir.create ~seed:(derive seed "queries") 4096;
    depths = Reservoir.create ~seed:(derive seed "depths") 4096;
    tx_frames = 0;
    rx_frames = 0;
    l4_frames = 0;
    tcp_payload = 0;
  }

let replay = ref (new_replay 0)

(* ---- driving the simulator ---- *)

let gc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words, s)

(* Step [sim] until [p] settles: the measured phase of one configuration.
   Counts events, and in a traced unit samples the queue depth. *)
let run sim p =
  let l = !ledger in
  let before = calibrate () in
  let w0, s0 = gc_words () in
  let p0 = P.created_count () in
  let t0 = now () in
  let events = ref 0 in
  let rec drive () =
    match P.state p with
    | `Resolved v -> Ok v
    | `Failed e -> Error e
    | `Pending ->
      if !traced then begin
        let d = Engine.Sim.pending sim in
        if d > l.pending_max then l.pending_max <- d;
        if !events land 63 = 0 then Reservoir.add !replay.depths (fun () -> d)
      end;
      if Engine.Sim.step sim then begin
        incr events;
        drive ()
      end
      else Error (Failure "event queue drained with the load still pending")
  in
  let r = drive () in
  let dt = now () -. t0 in
  l.promises <- l.promises + (P.created_count () - p0);
  let w1, s1 = gc_words () in
  l.alloc_bytes <- l.alloc_bytes +. ((w1 -. w0) *. float_of_int (Sys.word_size / 8));
  l.minor <- l.minor + (s1.Gc.minor_collections - s0.Gc.minor_collections);
  l.major <- l.major + (s1.Gc.major_collections - s0.Gc.major_collections);
  l.events <- l.events + !events;
  let after = calibrate () in
  l.cal_run := before @ after @ !(l.cal_run);
  l.run_s <- l.run_s +. dt;
  l.run_rel <- l.run_rel +. relative dt ~before ~after;
  r

(* ---- simulated worlds ---- *)

type host = {
  dom : Xensim.Domain.t;
  nic : Netsim.Nic.t;
  netif : Devices.Netif.t;
  stack : Netstack.Stack.t;
}

type world = {
  sim : Engine.Sim.t;
  hv : Xensim.Hypervisor.t;
  dom0 : Xensim.Domain.t;
  bridge : Netsim.Bridge.t;
  mutable hosts : host list;
  capture : Netsim.Capture.t option;
}

(* L4 bytes of an IPv4 frame, with the protocol and the TCP payload
   length; [None] for anything else. *)
let l4_of_frame frame =
  let len = Bytestruct.length frame in
  if len < 34 || Bytestruct.BE.get_uint16 frame 12 <> Netstack.Ethernet.ethertype_ipv4 then None
  else
    let ihl = (Bytestruct.get_uint8 frame 14 land 0xf) * 4 in
    let total = Bytestruct.BE.get_uint16 frame 16 in
    let proto = Bytestruct.get_uint8 frame 23 in
    let l4_len = min (total - ihl) (len - 14 - ihl) in
    let tcp = proto = Netstack.Ipv4.proto_tcp in
    if l4_len <= 0 || not (tcp || proto = Netstack.Ipv4.proto_udp) then None
    else
      let l4 = Bytestruct.sub frame (14 + ihl) l4_len in
      let payload =
        if tcp && l4_len >= 20 then l4_len - ((Bytestruct.get_uint8 l4 12 lsr 4) * 4) else 0
      in
      Some (proto, l4, payload)

let tap_frame ~dir ~link:_ ~time_ns:_ frame =
  let r = !replay in
  match (dir, l4_of_frame frame) with
  | Netsim.Rx, l4 ->
    r.rx_frames <- r.rx_frames + 1;
    if l4 <> None then r.l4_frames <- r.l4_frames + 1
  | Netsim.Tx, Some (_, l4, payload) ->
    r.tx_frames <- r.tx_frames + 1;
    r.l4_frames <- r.l4_frames + 1;
    r.tcp_payload <- r.tcp_payload + payload;
    Reservoir.add r.l4 (fun () -> Bytestruct.to_string l4)
  | Netsim.Tx, None -> r.tx_frames <- r.tx_frames + 1

let make_world ~seed =
  let sim = Engine.Sim.create ~seed () in
  let hv = Xensim.Hypervisor.create sim in
  let dom0 =
    Xensim.Hypervisor.create_domain hv ~name:"dom0" ~mem_mib:2048 ~platform:Platform.linux_pv ()
  in
  dom0.Xensim.Domain.state <- Xensim.Domain.Running;
  let bridge = Netsim.Bridge.create sim in
  let capture =
    if !traced then begin
      let c = Netsim.Capture.create ~name:"perfbench" () in
      Netsim.Capture.attach_bridge c bridge;
      ignore (Netsim.Bridge.tap bridge tap_frame);
      Some c
    end
    else None
  in
  { sim; hv; dom0; bridge; hosts = []; capture }

let make_host ?(platform = Platform.xen_extent) ?(vcpus = 1) ?(account_cpu = true)
    ?(bandwidth_bps = 1_000_000_000) ?(latency_ns = 30_000) w ~name ~ip () =
  let dom = Xensim.Hypervisor.create_domain w.hv ~name ~mem_mib:256 ~platform ~vcpus () in
  dom.Xensim.Domain.state <- Xensim.Domain.Running;
  let nic =
    Netsim.Bridge.new_nic w.bridge ~bandwidth_bps ~latency_ns
      ~mac:(Netsim.mac_of_int (100 + dom.Xensim.Domain.id))
      ()
  in
  let netif = Devices.Netif.connect w.hv ~dom ~backend_dom:w.dom0 ~nic () in
  let cfg =
    Netstack.Stack.Static
      {
        Netstack.Ipv4.address = Netstack.Ipaddr.of_string ip;
        netmask = Netstack.Ipaddr.of_string "255.255.255.0";
        gateway = None;
      }
  in
  let stack =
    if account_cpu then P.run w.sim (Netstack.Stack.create w.sim ~dom ~netif cfg)
    else P.run w.sim (Netstack.Stack.create w.sim ~netif cfg)
  in
  let h = { dom; nic; netif; stack } in
  w.hosts <- h :: w.hosts;
  h

(* Close a world: record its virtual outputs that every workload shares
   (vCPU totals), its per-layer counters, and the pktbufs still out. *)
let finish_world ~label w =
  Option.iter Netsim.Capture.close w.capture;
  let run_ns, wait_ns =
    List.fold_left
      (fun (r, q) v -> (r + v.Engine.Sim.vt_run_ns, q + v.Engine.Sim.vt_wait_ns))
      (0, 0) (Engine.Sim.vcpu_totals w.sim)
  in
  virt (label ^ "/vcpu-run-ns") run_ns;
  virt (label ^ "/vcpu-wait-ns") wait_ns;
  count "xensim.vcpu.run_virt_ms" (float_of_int run_ns /. 1e6);
  count "xensim.vcpu.wait_virt_ms" (float_of_int wait_ns /. 1e6);
  List.iter
    (fun h ->
      let tcp = Netstack.Stack.tcp h.stack in
      count "netsim.frames" (float_of_int (Netsim.Nic.frames_sent h.nic));
      count "netsim.wire_mb" (float_of_int (Netsim.Nic.bytes_sent h.nic) /. 1e6);
      count "netstack.tcp.segments_sent" (float_of_int (Netstack.Tcp.segments_sent tcp));
      count "netstack.tcp.retransmissions" (float_of_int (Netstack.Tcp.retransmissions tcp));
      count "pktbuf.outstanding_end"
        (float_of_int (Pktbuf.outstanding (Devices.Netif.pool h.netif))))
    w.hosts

(* A 0-based index drawn uniformly, from a pre-generated input array. *)
let draws ~seed ~label ~n ~bound =
  let prng = Engine.Prng.create ~seed:(derive seed label) () in
  Array.init n (fun _ -> Engine.Prng.int prng bound)

let digest_ints a =
  let b = Buffer.create (Array.length a * 4) in
  Array.iter (fun i -> Buffer.add_string b (string_of_int i); Buffer.add_char b ',') a;
  Buffer.contents b
