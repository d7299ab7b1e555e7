type key = string * int

type t = {
  table : (key, Bytestruct.t) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create () = { table = Hashtbl.create 1024; hits = 0; misses = 0 }

let key ~qname ~qtype = (Dns_name.to_string qname, Dns_wire.qtype_to_int qtype)

let find t ~qname ~qtype =
  match Hashtbl.find_opt t.table (key ~qname ~qtype) with
  | Some encoded ->
    t.hits <- t.hits + 1;
    (* Copy: the caller patches the id, and cached bytes must stay clean. *)
    Some (Bytestruct.copy encoded)
  | None ->
    t.misses <- t.misses + 1;
    None

let add t ~qname ~qtype encoded = Hashtbl.replace t.table (key ~qname ~qtype) (Bytestruct.copy encoded)

let hits t = t.hits
let misses t = t.misses
