(* Layer-kernel replay: host cost of single layers' public functions,
   timed over the inputs a traced unit recorded (frames off the bridge,
   the DNS query stream, the event-queue depths the driver saw), so each
   per-item cost carries the workload's own size mix. The ring and pktbuf
   kernels have no recorded input and run a fixed cycle. *)

let now = Common.now

(* Nanoseconds per item of [batch] (which handles [items] items): the
   least of five timings, each repeating the batch for at least 20 ms. *)
let ns_per_item ~items batch =
  if items = 0 then 0.0
  else
    let once () =
      let t0 = now () in
      let reps = ref 0 in
      while now () -. t0 < 0.02 do
        batch ();
        incr reps
      done;
      (now () -. t0) *. 1e9 /. float_of_int (!reps * items)
    in
    List.fold_left Float.min infinity (List.init 5 (fun _ -> once ()))

(* Checksum over the captured L4 bytes: ns per frame and ns per KiB. *)
let checksum l4 =
  let bufs = Array.of_list (List.map Bytestruct.of_string l4) in
  let bytes = Array.fold_left (fun a b -> a + Bytestruct.length b) 0 bufs in
  let per_frame =
    ns_per_item ~items:(Array.length bufs) (fun () ->
        Array.iter (fun b -> ignore (Sys.opaque_identity (Netstack.Checksum.ones_complement b))) bufs)
  in
  let per_kb =
    if bytes = 0 then 0.0 else per_frame *. float_of_int (Array.length bufs) *. 1024.0 /. float_of_int bytes
  in
  (per_frame, per_kb)

(* One query answered from scratch: decode, zone lookup, encode. *)
let dns_answer queries =
  let qs = Array.of_list (List.map (fun (q, db) -> (Bytestruct.of_string q, db)) queries) in
  ns_per_item ~items:(Array.length qs) (fun () ->
      Array.iter
        (fun (q, db) ->
          let m = Dns.Dns_wire.decode q in
          match m.Dns.Dns_wire.questions with
          | question :: _ ->
            ignore
              (Sys.opaque_identity
                 (Dns.Dns_wire.encode (Dns.Db.answer db ~id:m.Dns.Dns_wire.id question)))
          | [] -> ())
        qs)

(* One push and one pop on a queue held at the median observed depth. *)
let eventq_push_pop depths =
  let depth =
    match List.sort compare depths with
    | [] -> 1
    | xs -> max 1 (List.nth xs (List.length xs / 2))
  in
  let q = Engine.Eventq.create () in
  let rng = Random.State.make [| depth |] in
  let f () = () in
  for _ = 1 to depth do
    ignore (Engine.Eventq.push q ~time:(Random.State.int rng 1_000_000) f)
  done;
  let steps = 4096 in
  ns_per_item ~items:steps (fun () ->
      for _ = 1 to steps do
        match Engine.Eventq.pop q with
        | Some (t, _) -> ignore (Engine.Eventq.push q ~time:(t + 1 + Random.State.int rng 1_000_000) f)
        | None -> ()
      done)

(* One request/response round trip through a shared ring. *)
let ring_cycle () =
  let page = Bytestruct.create 4096 in
  let front = Xensim.Ring.Front.init (Xensim.Ring.Sring.init page ~slot_bytes:16) in
  let back = Xensim.Ring.Back.init (Xensim.Ring.Sring.attach page ~slot_bytes:16) in
  let steps = 4096 in
  ns_per_item ~items:steps (fun () ->
      for i = 1 to steps do
        Bytestruct.set_uint8 (Xensim.Ring.Front.next_request front) 0 (i land 0xff);
        ignore (Xensim.Ring.Front.push_requests_and_check_notify front);
        ignore (Xensim.Ring.Back.consume_requests back ignore);
        Bytestruct.set_uint8 (Xensim.Ring.Back.next_response back) 0 (i land 0xff);
        ignore (Xensim.Ring.Back.push_responses_and_check_notify back);
        ignore (Xensim.Ring.Front.consume_responses front ignore)
      done)

let pktbuf_alloc_release () =
  let pool = Pktbuf.create_pool ~name:"perfbench" () in
  let steps = 4096 in
  ns_per_item ~items:steps (fun () ->
      for _ = 1 to steps do
        Pktbuf.release (Pktbuf.alloc pool)
      done)
