type t = (string, string) Hashtbl.t

let magic = 0x4B565331l (* "KVS1" *)

let create () = Hashtbl.create 64

let of_pairs pairs =
  let t = create () in
  List.iter (fun (k, v) -> Hashtbl.replace t k v) pairs;
  t

let get t k = Hashtbl.find_opt t k
let set t k v = Hashtbl.replace t k v
let remove t k = Hashtbl.remove t k
let mem t k = Hashtbl.mem t k
let size t = Hashtbl.length t
let keys t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])

let serialize t =
  let total =
    Hashtbl.fold (fun k v acc -> acc + 8 + String.length k + String.length v) t 8
  in
  let b = Bytestruct.create total in
  Bytestruct.BE.set_uint32 b 0 magic;
  Bytestruct.BE.set_uint32 b 4 (Int32.of_int (Hashtbl.length t));
  let off = ref 8 in
  Hashtbl.iter
    (fun k v ->
      Bytestruct.BE.set_uint32 b !off (Int32.of_int (String.length k));
      Bytestruct.BE.set_uint32 b (!off + 4) (Int32.of_int (String.length v));
      Bytestruct.set_string b (!off + 8) k;
      Bytestruct.set_string b (!off + 8 + String.length k) v;
      off := !off + 8 + String.length k + String.length v)
    t;
  b

let deserialize b =
  if Bytestruct.length b < 8 || Bytestruct.BE.get_uint32 b 0 <> magic then
    invalid_arg "Kv.deserialize: bad magic";
  let count = Int32.to_int (Bytestruct.BE.get_uint32 b 4) in
  let t = create () in
  let off = ref 8 in
  (try
     for _ = 1 to count do
       let klen = Int32.to_int (Bytestruct.BE.get_uint32 b !off) in
       let vlen = Int32.to_int (Bytestruct.BE.get_uint32 b (!off + 4)) in
       let k = Bytestruct.get_string b (!off + 8) klen in
       let v = Bytestruct.get_string b (!off + 8 + klen) vlen in
       Hashtbl.replace t k v;
       off := !off + 8 + klen + vlen
     done
   with Invalid_argument _ -> invalid_arg "Kv.deserialize: truncated");
  t

let round_to_sectors backend len =
  (len + backend.Backend.sector_bytes - 1) / backend.Backend.sector_bytes

let persist t backend =
  let data = serialize t in
  let sectors = round_to_sectors backend (Bytestruct.length data) in
  if sectors > backend.Backend.sectors then
    invalid_arg "Kv.persist: store larger than device";
  let padded = Bytestruct.create (sectors * backend.Backend.sector_bytes) in
  Bytestruct.blit data 0 padded 0 (Bytestruct.length data);
  backend.Backend.write ~sector:0 padded

let load backend =
  (* Read the header sector first to size the full read. *)
  let open Mthread.Promise in
  bind (backend.Backend.read ~sector:0 ~count:1) (fun first ->
      if Bytestruct.BE.get_uint32 first 0 <> magic then
        fail (Invalid_argument "Kv.load: bad magic")
      else begin
        (* Upper bound: scan by deserialising progressively larger spans.
           Stores are small (zone files); read 64 sectors at a time. *)
        let rec grow count =
          let count = min count backend.Backend.sectors in
          bind (backend.Backend.read ~sector:0 ~count) (fun data ->
              match deserialize data with
              | t -> return t
              | exception Invalid_argument _ when count < backend.Backend.sectors ->
                grow (count * 2)
              | exception e -> fail e)
        in
        grow 64
      end)
