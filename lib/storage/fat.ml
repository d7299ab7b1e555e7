exception Not_found_path of string
exception Already_exists of string
exception Not_a_directory of string
exception Is_a_directory of string
exception Directory_not_empty of string
exception No_space

let magic = "FAT32SIM"
let entry_bytes = 64
let name_bytes = 47
let eoc = 0x0FFFFFF8 (* end-of-chain marker *)
let attr_used = 0x01
let attr_dir = 0x02

type t = {
  backend : Backend.t;
  sectors_per_cluster : int;
  n_clusters : int;
  fat_start : int;  (* sector *)
  fat_sectors : int;
  data_start : int;  (* sector *)
  root_cluster : int;
  fat : int array;  (* in-memory copy, written through *)
}

let ( >>= ) = Mthread.Promise.bind
let return = Mthread.Promise.return
let fail = Mthread.Promise.fail

let cluster_bytes t = t.sectors_per_cluster * t.backend.Backend.sector_bytes

(* ---- FAT management ---- *)

let fat_entry_sector t cluster = t.fat_start + (cluster * 4 / t.backend.Backend.sector_bytes)

let write_fat_entry t cluster =
  (* Write through the sector containing this entry. *)
  let sb = t.backend.Backend.sector_bytes in
  let sector = fat_entry_sector t cluster in
  let first_entry = (sector - t.fat_start) * sb / 4 in
  let buf = Bytestruct.create sb in
  for i = 0 to (sb / 4) - 1 do
    let c = first_entry + i in
    if c < t.n_clusters then Bytestruct.LE.set_uint32 buf (i * 4) (Int32.of_int t.fat.(c))
  done;
  t.backend.Backend.write ~sector buf

let alloc_cluster t =
  let rec find i = if i >= t.n_clusters then raise No_space else if t.fat.(i) = 0 then i else find (i + 1) in
  let c = find 2 in
  t.fat.(c) <- eoc;
  write_fat_entry t c >>= fun () -> return c

let chain_of t first =
  let rec go acc c =
    if c >= eoc || c = 0 then List.rev acc
    else go (c :: acc) t.fat.(c)
  in
  go [] first

let free_chain t first =
  let clusters = chain_of t first in
  let rec go = function
    | [] -> return ()
    | c :: rest ->
      t.fat.(c) <- 0;
      write_fat_entry t c >>= fun () -> go rest
  in
  go clusters

let extend_chain t last =
  alloc_cluster t >>= fun fresh ->
  if last <> 0 then begin
    t.fat.(last) <- fresh;
    write_fat_entry t last >>= fun () -> return fresh
  end
  else return fresh

(* ---- cluster I/O ---- *)

let cluster_sector t c = t.data_start + ((c - 2) * t.sectors_per_cluster)

let read_cluster t c = t.backend.Backend.read ~sector:(cluster_sector t c) ~count:t.sectors_per_cluster

let write_cluster t c data =
  assert (Bytestruct.length data = cluster_bytes t);
  t.backend.Backend.write ~sector:(cluster_sector t c) data

(* ---- directory entries ---- *)

type dirent = { name : string; attr : int; size : int; first_cluster : int }

let parse_entry buf off =
  let raw_name = Bytestruct.get_string buf off name_bytes in
  let name =
    match String.index_opt raw_name '\000' with
    | Some i -> String.sub raw_name 0 i
    | None -> raw_name
  in
  {
    name;
    attr = Bytestruct.get_uint8 buf (off + name_bytes);
    size = Int32.to_int (Bytestruct.LE.get_uint32 buf (off + 48));
    first_cluster = Int32.to_int (Bytestruct.LE.get_uint32 buf (off + 52));
  }

let write_entry buf off e =
  if String.length e.name > name_bytes then invalid_arg "Fat: name too long";
  Bytestruct.fill (Bytestruct.sub buf off entry_bytes) '\000';
  Bytestruct.set_string buf off e.name;
  Bytestruct.set_uint8 buf (off + name_bytes) e.attr;
  Bytestruct.LE.set_uint32 buf (off + 48) (Int32.of_int e.size);
  Bytestruct.LE.set_uint32 buf (off + 52) (Int32.of_int e.first_cluster)

(* Fold over (cluster, offset, entry) of a directory chain. *)
let fold_dir t first_cluster f acc =
  let rec per_cluster acc = function
    | [] -> return acc
    | c :: rest ->
      read_cluster t c >>= fun data ->
      let per_entry acc off =
        if off + entry_bytes > Bytestruct.length data then acc
        else f acc ~cluster:c ~off ~entry:(parse_entry data off) ~data
      in
      let rec entries acc off =
        if off + entry_bytes > Bytestruct.length data then return acc
        else entries (per_entry acc off) (off + entry_bytes)
      in
      entries acc 0 >>= fun acc -> per_cluster acc rest
  in
  per_cluster acc (chain_of t first_cluster)

let find_entry t dir_cluster name =
  fold_dir t dir_cluster
    (fun acc ~cluster ~off ~entry ~data:_ ->
      match acc with
      | Some _ -> acc
      | None -> if entry.attr land attr_used <> 0 && entry.name = name then Some (cluster, off, entry) else None)
    None

(* Insert or replace an entry; extends the directory when full. *)
let upsert_entry t dir_cluster e =
  find_entry t dir_cluster e.name >>= fun existing ->
  let place cluster off =
    read_cluster t cluster >>= fun data ->
    write_entry data off e;
    write_cluster t cluster data
  in
  match existing with
  | Some (cluster, off, _) -> place cluster off
  | None ->
    (* find a free slot *)
    fold_dir t dir_cluster
      (fun acc ~cluster ~off ~entry ~data:_ ->
        match acc with
        | Some _ -> acc
        | None -> if entry.attr land attr_used = 0 then Some (cluster, off) else None)
      None
    >>= fun slot ->
    (match slot with
    | Some (cluster, off) -> place cluster off
    | None ->
      (* extend the directory chain with a zeroed cluster *)
      let rec last c = if t.fat.(c) >= eoc then c else last t.fat.(c) in
      extend_chain t (last dir_cluster) >>= fun fresh ->
      write_cluster t fresh (Bytestruct.create (cluster_bytes t)) >>= fun () -> place fresh 0)

let clear_entry t cluster off =
  read_cluster t cluster >>= fun data ->
  write_entry data off { name = ""; attr = 0; size = 0; first_cluster = 0 };
  write_cluster t cluster data

(* ---- path resolution ---- *)

let split_path path =
  if path = "" || path.[0] <> '/' then invalid_arg "Fat: absolute path required";
  List.filter (fun s -> s <> "") (String.split_on_char '/' path)

(* Resolve the directory containing the leaf, returning (dir_cluster, leaf). *)
let resolve_parent t path =
  let parts = split_path path in
  match List.rev parts with
  | [] -> invalid_arg "Fat: root has no parent"
  | leaf :: rev_dirs ->
    let rec walk cluster = function
      | [] -> return (cluster, leaf)
      | d :: rest ->
        find_entry t cluster d >>= ( function
        | Some (_, _, e) when e.attr land attr_dir <> 0 -> walk e.first_cluster rest
        | Some _ -> fail (Not_a_directory d)
        | None -> fail (Not_found_path d) )
    in
    walk t.root_cluster (List.rev rev_dirs)

let resolve t path =
  match split_path path with
  | [] -> return `Root
  | _ ->
    resolve_parent t path >>= fun (dir, leaf) ->
    find_entry t dir leaf >>= ( function
    | Some (c, off, e) -> return (`Entry (dir, c, off, e))
    | None -> fail (Not_found_path path) )

(* ---- formatting / mounting ---- *)

let format backend ?(sectors_per_cluster = 8) () =
  let sb = backend.Backend.sector_bytes in
  let total = backend.Backend.sectors in
  (* Reserve sector 0; size the FAT for the remaining space. *)
  let approx_clusters = (total - 1) / sectors_per_cluster in
  let fat_sectors = ((approx_clusters + 2) * 4 + sb - 1) / sb in
  let data_start = 1 + fat_sectors in
  let n_clusters = 2 + ((total - data_start) / sectors_per_cluster) in
  let boot = Bytestruct.create sb in
  Bytestruct.set_string boot 0 magic;
  Bytestruct.LE.set_uint16 boot 8 sb;
  Bytestruct.LE.set_uint16 boot 10 sectors_per_cluster;
  Bytestruct.LE.set_uint32 boot 12 (Int32.of_int n_clusters);
  Bytestruct.LE.set_uint32 boot 16 1l (* fat start *);
  Bytestruct.LE.set_uint32 boot 20 (Int32.of_int fat_sectors);
  Bytestruct.LE.set_uint32 boot 24 (Int32.of_int data_start);
  Bytestruct.LE.set_uint32 boot 28 2l (* root cluster *);
  backend.Backend.write ~sector:0 boot >>= fun () ->
  let t =
    {
      backend;
      sectors_per_cluster;
      n_clusters;
      fat_start = 1;
      fat_sectors;
      data_start;
      root_cluster = 2;
      fat = Array.make n_clusters 0;
    }
  in
  t.fat.(2) <- eoc (* root directory *);
  (* Zero the FAT area then persist root's entry. *)
  let rec zero s =
    if s >= fat_sectors then return ()
    else backend.Backend.write ~sector:(1 + s) (Bytestruct.create sb) >>= fun () -> zero (s + 1)
  in
  zero 0 >>= fun () ->
  write_fat_entry t 2 >>= fun () ->
  write_cluster t 2 (Bytestruct.create (cluster_bytes t)) >>= fun () -> return t

let mount backend =
  (* boot sector fields are self-describing; no geometry assumptions *)
  backend.Backend.read ~sector:0 ~count:1 >>= fun boot ->
  if Bytestruct.get_string boot 0 8 <> magic then
    fail (Invalid_argument "Fat.mount: bad magic")
  else begin
    let sectors_per_cluster = Bytestruct.LE.get_uint16 boot 10 in
    let n_clusters = Int32.to_int (Bytestruct.LE.get_uint32 boot 12) in
    let fat_start = Int32.to_int (Bytestruct.LE.get_uint32 boot 16) in
    let fat_sectors = Int32.to_int (Bytestruct.LE.get_uint32 boot 20) in
    let data_start = Int32.to_int (Bytestruct.LE.get_uint32 boot 24) in
    let root_cluster = Int32.to_int (Bytestruct.LE.get_uint32 boot 28) in
    let t =
      {
        backend;
        sectors_per_cluster;
        n_clusters;
        fat_start;
        fat_sectors;
        data_start;
        root_cluster;
        fat = Array.make n_clusters 0;
      }
    in
    backend.Backend.read ~sector:fat_start ~count:fat_sectors >>= fun fat_data ->
    for c = 0 to n_clusters - 1 do
      t.fat.(c) <- Int32.to_int (Bytestruct.LE.get_uint32 fat_data (c * 4)) land 0x0FFFFFFF
    done;
    return t
  end

(* ---- public operations ---- *)

let add_node t path ~dir =
  resolve_parent t path >>= fun (parent, leaf) ->
  find_entry t parent leaf >>= function
  | Some _ -> fail (Already_exists path)
  | None ->
    if dir then
      alloc_cluster t >>= fun c ->
      write_cluster t c (Bytestruct.create (cluster_bytes t)) >>= fun () ->
      upsert_entry t parent
        { name = leaf; attr = attr_used lor attr_dir; size = 0; first_cluster = c }
    else upsert_entry t parent { name = leaf; attr = attr_used; size = 0; first_cluster = 0 }

let mkdir t path = add_node t path ~dir:true
let create t path = add_node t path ~dir:false

let write_file t path data =
  (resolve_parent t path >>= fun (parent, leaf) ->
   find_entry t parent leaf >>= function
   | Some (_, _, e) when e.attr land attr_dir <> 0 -> fail (Is_a_directory path)
   | Some (c, off, e) -> return (parent, leaf, Some (c, off, e))
   | None -> return (parent, leaf, None))
  >>= fun (parent, leaf, existing) ->
  (* Free any old chain, then allocate a fresh one. *)
  (match existing with
  | Some (_, _, e) when e.first_cluster <> 0 -> free_chain t e.first_cluster
  | _ -> return ())
  >>= fun () ->
  let len = Bytestruct.length data in
  let cb = cluster_bytes t in
  let n_needed = (len + cb - 1) / cb in
  let rec build_chain prev first i =
    if i >= n_needed then return first
    else
      extend_chain t prev >>= fun c ->
      let chunk = Bytestruct.create cb in
      let this = min cb (len - (i * cb)) in
      Bytestruct.blit data (i * cb) chunk 0 this;
      write_cluster t c chunk >>= fun () ->
      build_chain c (if first = 0 then c else first) (i + 1)
  in
  build_chain 0 0 0 >>= fun first ->
  upsert_entry t parent { name = leaf; attr = attr_used; size = len; first_cluster = first }

let read_sectors t path f =
  resolve t path >>= function
  | `Root -> fail (Is_a_directory path)
  | `Entry (_, _, _, e) ->
    if e.attr land attr_dir <> 0 then fail (Is_a_directory path)
    else begin
      let sb = t.backend.Backend.sector_bytes in
      let remaining = ref e.size in
      let rec per_cluster = function
        | [] -> return ()
        | c :: rest ->
          let rec per_sector s =
            if s >= t.sectors_per_cluster || !remaining <= 0 then return ()
            else
              t.backend.Backend.read ~sector:(cluster_sector t c + s) ~count:1 >>= fun sec ->
              let this = min sb !remaining in
              remaining := !remaining - this;
              f (Bytestruct.sub sec 0 this) >>= fun () -> per_sector (s + 1)
          in
          per_sector 0 >>= fun () -> per_cluster rest
      in
      per_cluster (chain_of t e.first_cluster)
    end

let read_file t path =
  resolve t path >>= function
  | `Root -> fail (Is_a_directory path)
  | `Entry (_, _, _, e) ->
    if e.attr land attr_dir <> 0 then fail (Is_a_directory path)
    else begin
      let out = Bytestruct.create e.size in
      let pos = ref 0 in
      read_sectors t path (fun sec ->
          Bytestruct.blit sec 0 out !pos (Bytestruct.length sec);
          pos := !pos + Bytestruct.length sec;
          return ())
      >>= fun () -> return out
    end

let dir_cluster_of t path =
  match split_path path with
  | [] -> return t.root_cluster
  | _ -> (
    resolve t path >>= function
    | `Root -> return t.root_cluster
    | `Entry (_, _, _, e) ->
      if e.attr land attr_dir = 0 then fail (Not_a_directory path) else return e.first_cluster)

let list_dir t path =
  dir_cluster_of t path >>= fun dc ->
  fold_dir t dc
    (fun acc ~cluster:_ ~off:_ ~entry ~data:_ ->
      if entry.attr land attr_used <> 0 then entry.name :: acc else acc)
    []
  >>= fun names -> return (List.sort compare names)

let remove t path =
  resolve t path >>= function
  | `Root -> fail (Is_a_directory path)
  | `Entry (_, cluster, off, e) ->
    (if e.attr land attr_dir <> 0 then
       fold_dir t e.first_cluster
         (fun acc ~cluster:_ ~off:_ ~entry ~data:_ -> acc || entry.attr land attr_used <> 0)
         false
       >>= fun non_empty -> if non_empty then fail (Directory_not_empty path) else return ()
     else return ())
    >>= fun () ->
    (if e.first_cluster <> 0 then free_chain t e.first_cluster else return ()) >>= fun () ->
    clear_entry t cluster off

let file_size t path =
  resolve t path >>= function
  | `Root -> fail (Is_a_directory path)
  | `Entry (_, _, _, e) -> return e.size

let is_directory t path =
  resolve t path >>= function
  | `Root -> return true
  | `Entry (_, _, _, e) -> return (e.attr land attr_dir <> 0)

let exists t path =
  Mthread.Promise.catch
    (fun () -> resolve t path >>= fun _ -> return true)
    (function Not_found_path _ -> return false | e -> fail e)

let free_clusters t =
  let n = ref 0 in
  for c = 2 to t.n_clusters - 1 do
    if t.fat.(c) = 0 then incr n
  done;
  !n

