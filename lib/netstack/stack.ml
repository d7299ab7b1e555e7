type t = {
  eth : Ethernet.t;
  arp : Arp.t;
  ip : Ipv4.t;
  icmp : Icmp4.t;
  udp : Udp.t;
  tcp : Tcp.t;
}

type ip_config = Static of Ipv4.config | Dhcp

let create sim ?dom ?(announce = true) ~netif config =
  let open Mthread.Promise in
  let eth = Ethernet.create netif in
  let initial =
    match config with
    | Static cfg -> cfg
    | Dhcp -> { Ipv4.address = Ipaddr.any; netmask = Ipaddr.any; gateway = None }
  in
  let arp = Arp.create sim eth ~ip:initial.Ipv4.address in
  let ip = Ipv4.create sim eth arp initial in
  let icmp = Icmp4.create sim ?dom ip in
  let udp = Udp.create sim ?dom ip in
  let tcp = Tcp.create sim ?dom ip in
  let t = { eth; arp; ip; icmp; udp; tcp } in
  match config with
  | Static _ when not announce -> return t
  | Static _ -> bind (Arp.announce arp) (fun () -> return t)
  | Dhcp ->
    bind (Dhcp.Client.acquire sim udp ~mac:(Ethernet.mac eth)) (fun lease ->
        Ipv4.set_config ip
          {
            Ipv4.address = lease.Dhcp.address;
            netmask = lease.Dhcp.netmask;
            gateway = lease.Dhcp.gateway;
          };
        return t)

let arp t = t.arp
let ipv4 t = t.ip
let icmp t = t.icmp
let udp t = t.udp
let tcp t = t.tcp
let address t = Ipv4.address t.ip
let mac t = Ethernet.mac t.eth
