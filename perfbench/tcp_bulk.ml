(* tcp_bulk: Figure 8's iperf transfer. Writers send 64 KiB chunks over
   10 Gb/s links for a fixed virtual window, with 1 and 10 flows across
   the Linux/Mirage platform pairs; two of the transfers run over a
   Gilbert-Elliott burst-loss link. An operation is one 64 KiB chunk
   delivered; every flow's byte stream is compared with what its writer
   sent, and must end exactly where the writer closed it. *)

module P = Mthread.Promise
module C = Common
module Tcp = Netstack.Tcp

let chunk = 65536

(* Per-flow stream: an endless repetition of a random pattern whose length
   is not a multiple of the chunk, so a lost, duplicated or reordered
   segment shifts the stream and shows. The pattern is stored twice over
   so any window of up to [period] bytes is one view. *)
let period = chunk + 4093

let window_ns = Engine.Sim.ms 20
let give_up_ns = Engine.Sim.sec 30

type config = { label : string; snd : Platform.t; rcv : Platform.t; flows : int; lossy : bool }

let configs =
  let pairs =
    [
      ("linux-linux", Platform.linux_pv, Platform.linux_pv);
      ("linux-mirage", Platform.linux_pv, Platform.xen_extent);
      ("mirage-linux", Platform.xen_extent, Platform.linux_pv);
    ]
  in
  List.concat_map
    (fun (name, snd, rcv) ->
      List.map
        (fun flows ->
          { label = Printf.sprintf "%s/%d-flow" name flows; snd; rcv; flows; lossy = false })
        [ 1; 10 ])
    pairs
  @ [
      { label = "lossy/linux-mirage/1-flow"; snd = Platform.linux_pv; rcv = Platform.xen_extent;
        flows = 1; lossy = true };
      { label = "lossy/mirage-linux/10-flow"; snd = Platform.xen_extent; rcv = Platform.linux_pv;
        flows = 10; lossy = true };
    ]

let pattern ~seed ~label i =
  let prng = Engine.Prng.create ~seed:(C.derive seed (label, i)) () in
  let s = String.init period (fun _ -> Char.chr (Engine.Prng.int prng 256)) in
  Bytestruct.of_string (s ^ s)

type rx = { pat : Bytestruct.t; mutable pos : int; mutable good : int; mutable corrupt : bool }

(* Compare a received piece with the stream at the flow's position. *)
let check rx c =
  let n = Bytestruct.length c in
  let rec go off =
    if off < n then begin
      let len = min (n - off) period in
      let want = Bytestruct.sub rx.pat ((rx.pos + off) mod period) len in
      if (not rx.corrupt) && not (Bytestruct.equal want (Bytestruct.sub c off len)) then
        rx.corrupt <- true;
      go (off + len)
    end
  in
  go 0;
  rx.pos <- rx.pos + n;
  if not rx.corrupt then rx.good <- rx.pos

let transfer ~seed cfg =
  let w, sender, receiver, pats =
    C.setup (fun () ->
        let w = C.make_world ~seed:(C.derive seed cfg.label) in
        let fast = 10_000_000_000 in
        let sender =
          C.make_host w ~platform:cfg.snd ~bandwidth_bps:fast ~latency_ns:20_000 ~name:"sender"
            ~ip:"10.0.0.1" ()
        in
        let receiver =
          C.make_host w ~platform:cfg.rcv ~bandwidth_bps:fast ~latency_ns:20_000
            ~name:"receiver" ~ip:"10.0.0.2" ()
        in
        let pats = Array.init cfg.flows (pattern ~seed ~label:cfg.label) in
        (w, sender, receiver, pats))
  in
  C.input_digest (String.concat "" (Array.to_list (Array.map Bytestruct.to_string pats)));
  (* Receivers find their flow's pattern by the writer's source port. *)
  let by_port : (int, rx) Hashtbl.t = Hashtbl.create 16 in
  let receivers_done, rdone_u = P.wait () in
  let finished = ref 0 in
  Tcp.listen (Netstack.Stack.tcp receiver.C.stack) ~port:5001 (fun flow ->
      let rec drain () =
        P.bind (Tcp.read flow) (function
          | None ->
            incr finished;
            if !finished = cfg.flows then P.wakeup rdone_u ();
            P.return ()
          | Some c ->
            (match Hashtbl.find_opt by_port (snd (Tcp.remote flow)) with
            | Some rx -> check rx c
            | None -> ());
            drain ())
      in
      drain ());
  let sent = Array.make cfg.flows 0 in
  let rxs = Array.map (fun pat -> { pat; pos = 0; good = 0; corrupt = false }) pats in
  let tcp = Netstack.Stack.tcp sender.C.stack in
  let dst = Netstack.Stack.address receiver.C.stack in
  let at_window = ref 0 in
  let t0 = ref 0 in
  let load =
    P.bind
      (P.all (List.init cfg.flows (fun _ -> Tcp.connect tcp ~dst ~dst_port:5001)))
      (fun flows ->
        List.iteri (fun i f -> Hashtbl.replace by_port (Tcp.local_port f) rxs.(i)) flows;
        C.count "netstack.tcp.conns" (float_of_int (List.length flows));
        if cfg.lossy then begin
          let ge = Netsim.Faults.burst_loss ~avg_loss:0.02 ~burst_len:5 () in
          List.iter
            (fun h -> Netsim.Bridge.set_faults w.C.bridge h.C.nic (Netsim.Faults.make ~ge ()))
            [ sender; receiver ]
        end;
        t0 := Engine.Sim.now w.C.sim;
        let stop_at = !t0 + window_ns in
        P.async (fun () ->
            P.bind (P.sleep w.C.sim window_ns) (fun () ->
                at_window := Array.fold_left (fun a rx -> a + rx.pos) 0 rxs;
                P.return ()));
        let pump i flow =
          let rec go () =
            if Engine.Sim.now w.C.sim >= stop_at then Tcp.close flow
            else
              let k = sent.(i) in
              let view = Bytestruct.sub pats.(i) (k * chunk mod period) chunk in
              P.bind (Tcp.write flow view) (fun () ->
                  sent.(i) <- k + 1;
                  go ())
          in
          go ()
        in
        P.bind (P.join (List.mapi pump flows)) (fun () -> receivers_done))
  in
  let outcome = C.run w.C.sim (P.with_timeout w.C.sim give_up_ns (fun () -> load)) in
  let total_sent = Array.fold_left ( + ) 0 sent in
  (match outcome with
  | Ok () ->
    Array.iteri
      (fun i rx ->
        let good = rx.good / chunk in
        let whole = (not rx.corrupt) && rx.pos = sent.(i) * chunk in
        let ok = if whole then sent.(i) else min good sent.(i) in
        C.ok ok;
        C.fail (sent.(i) - ok);
        C.count "app_bytes" (float_of_int rx.good))
      rxs
  | Error _ -> C.fail (max 1 total_sent));
  C.virt (cfg.label ^ "/bytes-at-window") !at_window;
  C.virt (cfg.label ^ "/done-ns") (Engine.Sim.now w.C.sim - !t0);
  C.virt (cfg.label ^ "/chunks-sent") total_sent;
  C.finish_world ~label:cfg.label w

let run_unit ~seed = List.iter (transfer ~seed) (C.slice configs)
