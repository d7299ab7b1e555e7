(* blk_rw: Figure 9's random block I/O on one 2 GiB device, with block
   sizes from 1 KiB to 4 MiB, both direct through the split block driver
   (Mirage and Linux PV frontends) and through the Linux-style buffer
   cache. Beside uniform random reads, each path reads a hot region that
   fits in the 4096-page cache and writes blocks that it then reads back.
   An operation is one block request completed. A read-back must equal
   what was written; every read is checked for length and, at three
   sectors, against a shadow of what the device should hold. *)

module P = Mthread.Promise
module C = Common

(* Keep the device at Figure 9's 2 GiB: its zero-filled backing is part
   of what set-up costs. *)
let device_sectors () = if !C.quick then 1 lsl 17 else 1 lsl 22

let sector = 512
let block_kib = [ 1; 4; 16; 64; 256; 1024; 4096 ]
let requests kib = max 8 (min 64 (16384 / kib))

(* A hot region of 8 MiB fits in the cache's 4096 pages of 4 KiB. *)
let hot_sectors = 8 * 1024 * 1024 / sector

type op = Read of int | Write of int * int  (** sector; sector and pattern offset *)

(* Written data comes from one random pattern, at sector-aligned offsets. *)
let pattern_bytes = (4096 * 1024) + (64 * 1024)

let ops ~seed ~label ~hot_base kib =
  let prng = Engine.Prng.create ~seed:(C.derive seed label) () in
  let spb = kib * 1024 / sector in
  let uniform () = Engine.Prng.int prng (device_sectors () / spb) * spb in
  let hot () = hot_base + (Engine.Prng.int prng (hot_sectors / spb) * spb) in
  (* Fixed shares, in a seed-shuffled order, so every seed does the same
     amount of each kind of work. *)
  let n = requests kib in
  let kinds = Array.init n (fun i -> if i < n / 2 then `Uniform else if i < n * 8 / 10 then `Hot else `Write) in
  Engine.Prng.shuffle prng kinds;
  Array.mapi
    (fun i kind ->
      match kind with
      | `Uniform -> Read (uniform ())
      | `Hot -> Read (hot ())
      | `Write -> Write ((if i land 1 = 0 then uniform () else hot ()), Engine.Prng.int prng 128 * sector))
    kinds

(* What the device should hold: pattern offset per written sector. *)
type shadow = { pattern : Bytestruct.t; written : (int, int) Hashtbl.t; zero : Bytestruct.t }

let expect sh s =
  match Hashtbl.find_opt sh.written s with
  | Some off -> Bytestruct.sub sh.pattern off sector
  | None -> sh.zero

let read_ok sh ~at ~count data =
  Bytestruct.length data = count * sector
  && List.for_all
       (fun i -> Bytestruct.equal (expect sh (at + i)) (Bytestruct.sub data (i * sector) sector))
       [ 0; count / 2; count - 1 ]

type path = {
  name : string;
  read : sector:int -> count:int -> Bytestruct.t P.t;
  write : sector:int -> Bytestruct.t -> unit P.t;
}

(* One path at one block size: the requests in order, one outstanding. *)
let drive sim sh path kib ops =
  let count = kib * 1024 / sector in
  let check ok = if ok then C.ok 1 else C.fail 1 in
  let rec go i =
    if i = Array.length ops then P.return ()
    else
      match ops.(i) with
      | Read at ->
        P.bind (path.read ~sector:at ~count) (fun data ->
            check (read_ok sh ~at ~count data);
            go (i + 1))
      | Write (at, off) ->
        let data = Bytestruct.sub sh.pattern off (count * sector) in
        P.bind (path.write ~sector:at data) (fun () ->
            for s = 0 to count - 1 do
              Hashtbl.replace sh.written (at + s) (off + (s * sector))
            done;
            C.ok 1;
            P.bind (path.read ~sector:at ~count) (fun back ->
                check (Bytestruct.equal back data);
                go (i + 1)))
  in
  let t0 = Engine.Sim.now sim in
  (match C.run sim (go 0) with Ok () -> () | Error _ -> C.fail 1);
  C.virt (Printf.sprintf "%s/%dKiB/elapsed-ns" path.name kib) (Engine.Sim.now sim - t0)

let op_to_string = function Read s -> string_of_int s | Write (s, o) -> Printf.sprintf "w%d@%d" s o

let run_unit ~seed =
  let w, disk, blkifs, cache, sh, direct, buffered =
    C.setup (fun () ->
        let w = C.make_world ~seed:(C.derive seed "blk_rw") in
        let disk =
          C.span "blockdev.disk.create_s" (fun () ->
              Blockdev.Disk.create w.C.sim ~sectors:(device_sectors ()) ())
        in
        let blkif platform name =
          let dom = Xensim.Hypervisor.create_domain w.C.hv ~name ~mem_mib:256 ~platform () in
          dom.Xensim.Domain.state <- Xensim.Domain.Running;
          (name, Devices.Blkif.connect w.C.hv ~dom ~backend_dom:w.C.dom0 ~disk ())
        in
        let blkifs = [ blkif Platform.xen_extent "mirage"; blkif Platform.linux_pv "linux" ] in
        let cache = Blockdev.Buffer_cache.create w.C.sim disk in
        let prng = Engine.Prng.create ~seed:(C.derive seed "pattern") () in
        let sh =
          {
            pattern =
              Bytestruct.of_string
                (String.init pattern_bytes (fun _ -> Char.chr (Engine.Prng.int prng 256)));
            written = Hashtbl.create 4096;
            zero = Bytestruct.create sector;
          }
        in
        let hot_base =
          Engine.Prng.int
            (Engine.Prng.create ~seed:(C.derive seed "hot") ())
            (device_sectors () / hot_sectors)
          * hot_sectors
        in
        let plan name =
          List.map
            (fun kib -> (kib, ops ~seed ~label:(Printf.sprintf "%s/%d" name kib) ~hot_base kib))
            (C.slice block_kib)
        in
        let direct =
          List.map
            (fun (name, b) ->
              let name = "direct-" ^ name in
              ({ name; read = Devices.Blkif.read b; write = Devices.Blkif.write b }, plan name))
            blkifs
        in
        let buffered =
          ( {
              name = "buffered";
              read = Blockdev.Buffer_cache.read cache;
              write = Blockdev.Buffer_cache.write cache;
            },
            plan "buffered" )
        in
        (w, disk, blkifs, cache, sh, direct, buffered))
  in
  List.iter
    (fun (_, plan) ->
      List.iter
        (fun (_, ops) ->
          C.input_digest (String.concat "," (Array.to_list (Array.map op_to_string ops))))
        plan)
    (buffered :: direct);
  (* A phase's time is the measured time of its requests alone, without
     the calibration slices around them. *)
  let phase name paths =
    let before = !C.ledger.C.run_s in
    List.iter
      (fun (path, plan) -> List.iter (fun (kib, ops) -> drive w.C.sim sh path kib ops) plan)
      paths;
    C.count name (!C.ledger.C.run_s -. before)
  in
  phase "blockdev.direct.run_s" direct;
  phase "blockdev.buffered.run_s" [ buffered ];
  C.count "blockdev.disk.reads" (float_of_int (Blockdev.Disk.reads_issued disk));
  C.count "blockdev.disk.writes" (float_of_int (Blockdev.Disk.writes_issued disk));
  List.iter
    (fun (_, b) -> C.count "devices.blkif.requests" (float_of_int (Devices.Blkif.requests_issued b)))
    blkifs;
  C.count "blockdev.cache.hits" (float_of_int (Blockdev.Buffer_cache.hits cache));
  C.count "blockdev.cache.misses" (float_of_int (Blockdev.Buffer_cache.misses cache));
  C.count "blockdev.cache.resident_pages"
    (float_of_int (Blockdev.Buffer_cache.resident_pages cache));
  C.finish_world ~label:"blk_rw" w
