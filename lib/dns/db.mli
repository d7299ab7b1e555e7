(** Authoritative zone database: name-indexed record sets with CNAME
    chasing and proper NXDOMAIN/NODATA authority sections. *)

type t

type lookup_result =
  | Answers of Dns_wire.rr list  (** includes any CNAME chain walked *)
  | No_data of Dns_wire.rr  (** name exists, no records of qtype; SOA *)
  | Nx_domain of Dns_wire.rr  (** name absent; SOA *)
  | Not_authoritative

val of_zone : Zone.t -> t

val lookup : t -> qname:Dns_name.t -> qtype:Dns_wire.qtype -> lookup_result

(** Distinct names in the zone (Figure 10's x-axis). *)
val entries : t -> int

(** Build the full response message for one query. *)
val answer : t -> id:int -> Dns_wire.question -> Dns_wire.message
