(** The assembled network stack: Ethernet + ARP + IPv4 + ICMP + UDP + TCP
    over a {!Devices.Netif}, configured statically (compiled-in address) or
    dynamically via DHCP — the two configuration modes of paper §2.3.1. *)

type t

type ip_config =
  | Static of Ipv4.config
  | Dhcp  (** acquire a lease before {!create}'s promise resolves *)

(** [create sim ?dom ~netif config] brings the interface up. With [Dhcp]
    the promise resolves after the lease is bound. [dom] is used for
    per-segment TCP cost accounting. [announce] (default true) controls
    the gratuitous ARP broadcast a [Static] stack sends at bring-up;
    boot storms disable it — 10⁴ simultaneous broadcasts over a
    10⁴-port bridge is 10⁸ deliveries before the first request. *)
val create :
  Engine.Sim.t ->
  ?dom:Xensim.Domain.t ->
  ?announce:bool ->
  netif:Devices.Netif.t ->
  ip_config ->
  t Mthread.Promise.t

val arp : t -> Arp.t
val ipv4 : t -> Ipv4.t
val icmp : t -> Icmp4.t
val udp : t -> Udp.t
val tcp : t -> Tcp.t

val address : t -> Ipaddr.t
val mac : t -> Macaddr.t
