exception Corrupt of string

let record_magic = 0xB7EE (* u16 *)
let kind_node = 1
let kind_commit = 2
let kind_pad = 3
let max_keys = 32
let header_bytes = 9 (* magic u16, kind u8, len u32, checksum u16 *)

type ptr = On_disk of int | In_mem of node

and node =
  | Leaf of (string * string) list  (* sorted by key *)
  | Internal of string list * ptr list  (* n keys, n+1 children *)

type t = {
  backend : Backend.t;
  cache : (int, node) Hashtbl.t;
  mutable root : ptr;
  mutable tail : int;  (* next append offset, sector aligned at batch start *)
  mutable generation : int;
  mutable dirty : bool;
}

let open_p = Mthread.Promise.bind
let return = Mthread.Promise.return

(* ---- checksum: 16-bit one's complement style additive sum ---- *)

let checksum buf off len =
  let s = ref 0 in
  for i = off to off + len - 1 do
    s := (!s + Bytestruct.get_uint8 buf i) land 0xffff
  done;
  !s

(* ---- node serialisation ---- *)

let node_payload_bytes = function
  | Leaf kvs ->
    3 + List.fold_left (fun acc (k, v) -> acc + 6 + String.length k + String.length v) 0 kvs
  | Internal (keys, children) ->
    3
    + List.fold_left (fun acc k -> acc + 2 + String.length k) 0 keys
    + (8 * List.length children)

let write_node_payload buf off node =
  match node with
  | Leaf kvs ->
    Bytestruct.set_uint8 buf off 1;
    Bytestruct.BE.set_uint16 buf (off + 1) (List.length kvs);
    let o = ref (off + 3) in
    List.iter
      (fun (k, v) ->
        Bytestruct.BE.set_uint16 buf !o (String.length k);
        Bytestruct.BE.set_uint32 buf (!o + 2) (Int32.of_int (String.length v));
        Bytestruct.set_string buf (!o + 6) k;
        Bytestruct.set_string buf (!o + 6 + String.length k) v;
        o := !o + 6 + String.length k + String.length v)
      kvs
  | Internal (keys, children) ->
    Bytestruct.set_uint8 buf off 2;
    Bytestruct.BE.set_uint16 buf (off + 1) (List.length keys);
    let o = ref (off + 3) in
    List.iter
      (fun k ->
        Bytestruct.BE.set_uint16 buf !o (String.length k);
        Bytestruct.set_string buf (!o + 2) k;
        o := !o + 2 + String.length k)
      keys;
    List.iter
      (fun child ->
        match child with
        | On_disk offset ->
          Bytestruct.BE.set_uint64 buf !o (Int64.of_int offset);
          o := !o + 8
        | In_mem _ -> invalid_arg "Btree: serialising node with in-memory child")
      children

let parse_node_payload buf off len =
  let fin = off + len in
  match Bytestruct.get_uint8 buf off with
  | 1 ->
    let n = Bytestruct.BE.get_uint16 buf (off + 1) in
    let o = ref (off + 3) in
    let kvs = ref [] in
    for _ = 1 to n do
      if !o + 6 > fin then raise (Corrupt "leaf entry header");
      let klen = Bytestruct.BE.get_uint16 buf !o in
      let vlen = Int32.to_int (Bytestruct.BE.get_uint32 buf (!o + 2)) in
      if !o + 6 + klen + vlen > fin then raise (Corrupt "leaf entry body");
      let k = Bytestruct.get_string buf (!o + 6) klen in
      let v = Bytestruct.get_string buf (!o + 6 + klen) vlen in
      kvs := (k, v) :: !kvs;
      o := !o + 6 + klen + vlen
    done;
    Leaf (List.rev !kvs)
  | 2 ->
    let n = Bytestruct.BE.get_uint16 buf (off + 1) in
    let o = ref (off + 3) in
    let keys = ref [] in
    for _ = 1 to n do
      if !o + 2 > fin then raise (Corrupt "internal key header");
      let klen = Bytestruct.BE.get_uint16 buf !o in
      if !o + 2 + klen > fin then raise (Corrupt "internal key body");
      keys := Bytestruct.get_string buf (!o + 2) klen :: !keys;
      o := !o + 2 + klen
    done;
    let children = ref [] in
    for _ = 0 to n do
      if !o + 8 > fin then raise (Corrupt "internal child");
      children := On_disk (Int64.to_int (Bytestruct.BE.get_uint64 buf !o)) :: !children;
      o := !o + 8
    done;
    Internal (List.rev !keys, List.rev !children)
  | k -> raise (Corrupt (Printf.sprintf "unknown node tag %d" k))

(* ---- raw record I/O ---- *)

let sector_of t off = off / t.backend.Backend.sector_bytes

let read_span t ~off ~len =
  let sb = t.backend.Backend.sector_bytes in
  let first = sector_of t off in
  let last = sector_of t (off + len - 1) in
  open_p
    (t.backend.Backend.read ~sector:first ~count:(last - first + 1))
    (fun data -> return (Bytestruct.sub data (off - (first * sb)) len))

(* Load the node whose record starts at byte [off]. *)
let load_node t off =
  match Hashtbl.find_opt t.cache off with
  | Some n -> return n
  | None ->
    open_p (read_span t ~off ~len:header_bytes) (fun hdr ->
        if Bytestruct.BE.get_uint16 hdr 0 <> record_magic then
          Mthread.Promise.fail (Corrupt (Printf.sprintf "no record magic at %d" off))
        else begin
          let kind = Bytestruct.get_uint8 hdr 2 in
          let len = Int32.to_int (Bytestruct.BE.get_uint32 hdr 3) in
          if kind <> kind_node then
            Mthread.Promise.fail (Corrupt (Printf.sprintf "expected node record at %d" off))
          else
            open_p (read_span t ~off:(off + header_bytes) ~len) (fun payload ->
                let node = parse_node_payload payload 0 len in
                Hashtbl.replace t.cache off node;
                return node)
        end)

let load t = function
  | In_mem n -> return n
  | On_disk off -> load_node t off

(* ---- search ---- *)

(* Index of the child to follow for [key] given separator [keys]: child i
   holds keys < keys.(i); the last child holds the rest. *)
let child_index keys key =
  let rec go i = function
    | [] -> i
    | k :: rest -> if key < k then i else go (i + 1) rest
  in
  go 0 keys

let rec get_from t ptr key =
  open_p (load t ptr) (function
    | Leaf kvs -> return (List.assoc_opt key kvs)
    | Internal (keys, children) ->
      get_from t (List.nth children (child_index keys key)) key)

(* ---- insertion (copy-on-write) ---- *)

type ins = Done of node | Split of node * string * node

let split_list l n =
  let rec go acc i = function
    | rest when i = 0 -> (List.rev acc, rest)
    | x :: rest -> go (x :: acc) (i - 1) rest
    | [] -> (List.rev acc, [])
  in
  go [] n l

let insert_leaf kvs key value =
  let rec go = function
    | [] -> [ (key, value) ]
    | (k, _) :: rest when k = key -> (key, value) :: rest
    | (k, v) :: rest when key < k -> (key, value) :: (k, v) :: rest
    | kv :: rest -> kv :: go rest
  in
  let kvs = go kvs in
  if List.length kvs <= max_keys then Done (Leaf kvs)
  else begin
    let left, right = split_list kvs (List.length kvs / 2) in
    match right with
    | (sep, _) :: _ -> Split (Leaf left, sep, Leaf right)
    | [] -> assert false
  end

let rec insert_node t ptr key value =
  open_p (load t ptr) (function
    | Leaf kvs -> return (insert_leaf kvs key value)
    | Internal (keys, children) ->
      let idx = child_index keys key in
      open_p (insert_node t (List.nth children idx) key value) (fun result ->
          let replace_child fresh = List.mapi (fun i c -> if i = idx then fresh else c) children in
          match result with
          | Done child -> return (Done (Internal (keys, replace_child (In_mem child))))
          | Split (l, sep, r) ->
            let before_k, after_k = split_list keys idx in
            let keys' = before_k @ (sep :: after_k) in
            let before_c, rest_c = split_list children idx in
            let children' =
              match rest_c with
              | _replaced :: after_c -> before_c @ (In_mem l :: In_mem r :: after_c)
              | [] -> assert false
            in
            if List.length keys' <= max_keys then return (Done (Internal (keys', children')))
            else begin
              let mid = List.length keys' / 2 in
              let lk, rest = split_list keys' mid in
              match rest with
              | sep' :: rk ->
                let lc, rc = split_list children' (mid + 1) in
                return (Split (Internal (lk, lc), sep', Internal (rk, rc)))
              | [] -> assert false
            end))

(* ---- deletion (no rebalancing; empty nodes tolerated) ---- *)

let rec delete_node t ptr key =
  open_p (load t ptr) (function
    | Leaf kvs -> return (Leaf (List.filter (fun (k, _) -> k <> key) kvs))
    | Internal (keys, children) ->
      let idx = child_index keys key in
      open_p (delete_node t (List.nth children idx) key) (fun child ->
          return
            (Internal (keys, List.mapi (fun i c -> if i = idx then In_mem child else c) children))))

(* ---- fold ---- *)

let rec fold_node t ptr ~lo ~hi f acc =
  open_p (load t ptr) (function
    | Leaf kvs ->
      return
        (List.fold_left
           (fun acc (k, v) ->
             let ge_lo = match lo with None -> true | Some l -> k >= l in
             let lt_hi = match hi with None -> true | Some h -> k < h in
             if ge_lo && lt_hi then f acc k v else acc)
           acc kvs)
    | Internal (keys, children) ->
      (* Visit each child whose key range can intersect [lo, hi). Child i
         covers keys in [keys.(i-1), keys.(i)). *)
      let rec visit acc i lower children =
        match children with
        | [] -> return acc
        | c :: rest ->
          let upper = List.nth_opt keys i in
          let skip_low = match (lo, upper) with Some l, Some u -> u <= l | _ -> false in
          let skip_high = match (hi, lower) with Some h, Some lb -> lb >= h | _ -> false in
          open_p
            (if skip_low || skip_high then return acc else fold_node t c ~lo ~hi f acc)
            (fun acc -> visit acc (i + 1) upper rest)
      in
      visit acc 0 None children)

(* ---- commit ---- *)

let align_up v granule = (v + granule - 1) / granule * granule

let commit t =
  if not t.dirty then return ()
  else begin
    let sb = t.backend.Backend.sector_bytes in
    let batch = Buffer.create 4096 in
    let base = t.tail in
    let emit_record kind payload_len fill =
      let total = header_bytes + payload_len in
      let rec_buf = Bytestruct.create total in
      Bytestruct.BE.set_uint16 rec_buf 0 record_magic;
      Bytestruct.set_uint8 rec_buf 2 kind;
      Bytestruct.BE.set_uint32 rec_buf 3 (Int32.of_int payload_len);
      fill rec_buf header_bytes;
      Bytestruct.BE.set_uint16 rec_buf 7 (checksum rec_buf header_bytes payload_len);
      let off = base + Buffer.length batch in
      Buffer.add_string batch (Bytestruct.to_string rec_buf);
      off
    in
    let rec persist_node node =
      match node with
      | Leaf _ ->
        let off = emit_record kind_node (node_payload_bytes node) (fun b o -> write_node_payload b o node) in
        Hashtbl.replace t.cache off node;
        off
      | Internal (keys, children) ->
        let children =
          List.map
            (function
              | On_disk o -> On_disk o
              | In_mem n -> On_disk (persist_node n))
            children
        in
        let fresh = Internal (keys, children) in
        let off =
          emit_record kind_node (node_payload_bytes fresh) (fun b o -> write_node_payload b o fresh)
        in
        Hashtbl.replace t.cache off fresh;
        off
    in
    let root_off =
      match t.root with
      | On_disk o -> o
      | In_mem n -> persist_node n
    in
    t.generation <- t.generation + 1;
    ignore
      (emit_record kind_commit 16 (fun b o ->
           Bytestruct.BE.set_uint64 b o (Int64.of_int root_off);
           Bytestruct.BE.set_uint64 b (o + 8) (Int64.of_int t.generation)));
    (* Pad the batch to a sector boundary with a pad record (or plain zero
       tail if fewer than header_bytes remain — the scanner treats a
       zeroed header as end-of-log). *)
    let used = Buffer.length batch in
    let padded = align_up used sb in
    let gap = padded - used in
    if gap >= header_bytes then
      ignore (emit_record kind_pad (gap - header_bytes) (fun _ _ -> ()));
    let data = Bytestruct.create padded in
    Bytestruct.blit_from_string (Buffer.contents batch) 0 data 0 (Buffer.length batch);
    let sector = base / sb in
    open_p (t.backend.Backend.write ~sector data) (fun () ->
        t.tail <- base + padded;
        t.root <- On_disk root_off;
        t.dirty <- false;
        return ())
  end

(* ---- construction / recovery ---- *)

let make backend =
  {
    backend;
    cache = Hashtbl.create 256;
    root = In_mem (Leaf []);
    tail = 0;
    generation = 0;
    dirty = true;
  }

let create backend =
  let t = make backend in
  open_p (commit t) (fun () -> return t)

let open_ backend =
  let t = make backend in
  t.dirty <- false;
  (* Scan record framing from the start; trust the last valid commit. *)
  let sb = backend.Backend.sector_bytes in
  let device_bytes = sb * backend.Backend.sectors in
  let last_commit = ref None in
  let rec scan off =
    if off + header_bytes > device_bytes then finish ()
    else
      open_p (read_span t ~off ~len:header_bytes) (fun hdr ->
          if Bytestruct.BE.get_uint16 hdr 0 <> record_magic then finish ()
          else begin
            let kind = Bytestruct.get_uint8 hdr 2 in
            let len = Int32.to_int (Bytestruct.BE.get_uint32 hdr 3) in
            let csum = Bytestruct.BE.get_uint16 hdr 7 in
            if off + header_bytes + len > device_bytes then finish ()
            else
              open_p (read_span t ~off:(off + header_bytes) ~len) (fun payload ->
                  if checksum payload 0 len <> csum then finish ()
                  else begin
                    if kind = kind_commit && len >= 16 then
                      last_commit :=
                        Some
                          ( Int64.to_int (Bytestruct.BE.get_uint64 payload 0),
                            Int64.to_int (Bytestruct.BE.get_uint64 payload 8),
                            align_up (off + header_bytes + len) sb );
                    scan (off + header_bytes + len)
                  end)
          end)
  and finish () =
    match !last_commit with
    | None -> Mthread.Promise.fail (Corrupt "no valid commit record")
    | Some (root_off, generation, tail) ->
      t.root <- On_disk root_off;
      t.generation <- generation;
      t.tail <- tail;
      return t
  in
  scan 0

(* ---- public mutators ---- *)

let get t key = get_from t t.root key

let set t key value =
  open_p (insert_node t t.root key value) (fun result ->
      (match result with
      | Done node -> t.root <- In_mem node
      | Split (l, sep, r) -> t.root <- In_mem (Internal ([ sep ], [ In_mem l; In_mem r ])));
      t.dirty <- true;
      return ())

let delete t key =
  open_p (delete_node t t.root key) (fun node ->
      t.root <- In_mem node;
      t.dirty <- true;
      return ())

let fold_range t ?lo ?hi f acc = fold_node t t.root ~lo ~hi f acc

let count t = fold_range t (fun acc _ _ -> acc + 1) 0

let generation t = t.generation
let log_bytes t = t.tail
let dirty t = t.dirty

let compact t =
  open_p (fold_range t (fun acc k v -> (k, v) :: acc) []) (fun pairs ->
      t.tail <- 0;
      Hashtbl.reset t.cache;
      t.root <- In_mem (Leaf []);
      t.dirty <- true;
      let rec reinsert = function
        | [] -> commit t
        | (k, v) :: rest -> open_p (set t k v) (fun () -> reinsert rest)
      in
      reinsert pairs)
