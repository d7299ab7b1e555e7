(* Windowed latency percentiles.

   The metrics plane's [http_request_ns] summary is lifetime-cumulative:
   one overload episode raises its p99 forever, which would wedge any
   controller watching it at "permanently breached". Closed-loop control
   needs a signal that recovers when the system does, so this keeps a
   bounded ring of (time, latency) samples and computes percentiles over
   only those younger than the window. Exposed to the scrape plane as a
   plain gauge via [register_gauge]. *)

type t = {
  sim : Engine.Sim.t;
  window_ns : int;
  cap : int;
  times : int array;
  values : int array;
  mutable len : int;  (* samples held, <= cap *)
  mutable next : int;  (* write position *)
}

let create sim ?(window_ns = 1_000_000_000) ?(capacity = 4096) () =
  if window_ns <= 0 then invalid_arg "Latwin.create: window_ns must be positive";
  if capacity <= 0 then invalid_arg "Latwin.create: capacity must be positive";
  {
    sim;
    window_ns;
    cap = capacity;
    times = Array.make capacity 0;
    values = Array.make capacity 0;
    len = 0;
    next = 0;
  }

let observe t latency_ns =
  t.times.(t.next) <- Engine.Sim.now t.sim;
  t.values.(t.next) <- max 0 latency_ns;
  t.next <- (t.next + 1) mod t.cap;
  if t.len < t.cap then t.len <- t.len + 1

(* Samples still inside the window, oldest first. *)
let in_window t =
  let horizon = Engine.Sim.now t.sim - t.window_ns in
  let out = ref [] in
  for i = t.len - 1 downto 0 do
    let pos = (t.next - t.len + i + (t.cap * 2)) mod t.cap in
    if t.times.(pos) >= horizon then out := t.values.(pos) :: !out
  done;
  !out

(* Nearest-rank percentile over the live window; [None] when empty. *)
let quantile t q =
  match in_window t with
  | [] -> None
  | vs ->
    let a = Array.of_list vs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (ceil (q *. float_of_int n)) - 1 in
    Some a.(max 0 (min (n - 1) rank))

let p99 t = quantile t 0.99

(* Publish the window's q-quantile as a pull gauge (0 while empty): the
   monitor scrapes it like any other series, and SLO rules on it recover
   as soon as the fleet does. *)
let register_gauge t ?(dom = -1) ?(q = 0.99) name =
  if Trace.Metrics.enabled () then
    Trace.Metrics.register_read ~dom ~kind:Trace.Metrics.Gauge name (fun () ->
        match quantile t q with Some v -> v | None -> 0)
