type t = {
  sim : Engine.Sim.t;
  hv : Xensim.Hypervisor.t;
  dom0 : Xensim.Domain.t;
  bridge : Netsim.Bridge.t;
  toolstack : Xensim.Toolstack.t;
}

type host = {
  dom : Xensim.Domain.t;
  nic : Netsim.Nic.t;
  netif : Devices.Netif.t;
  stack : Netstack.Stack.t;
}

let static_ip s =
  {
    Netstack.Ipv4.address = Netstack.Ipaddr.of_string s;
    netmask = Netstack.Ipaddr.of_string "255.255.255.0";
    gateway = None;
  }

let running hv ~name ~mem_mib ~platform ~vcpus =
  let dom = Xensim.Hypervisor.create_domain hv ~name ~mem_mib ~platform ~vcpus () in
  dom.Xensim.Domain.state <- Xensim.Domain.Running;
  dom

let create ?(seed = 42) ?seal_patch ?static_fdb () =
  let sim = Engine.Sim.create ~seed () in
  let hv = Xensim.Hypervisor.create ?seal_patch sim in
  let dom0 = running hv ~name:"dom0" ~mem_mib:512 ~platform:Platform.linux_pv ~vcpus:1 in
  let bridge = Netsim.Bridge.create ?static_fdb sim in
  { sim; hv; dom0; bridge; toolstack = Xensim.Toolstack.create hv }

let host w ?(platform = Platform.xen_extent) ?(vcpus = 1) ?(account_cpu = true) ?bandwidth_bps
    ?latency_ns ~name ~ip () =
  let dom = running w.hv ~name ~mem_mib:64 ~platform ~vcpus in
  let nic =
    Netsim.Bridge.new_nic w.bridge ?bandwidth_bps ?latency_ns
      ~mac:(Netsim.mac_of_int (100 + dom.Xensim.Domain.id))
      ()
  in
  let netif = Devices.Netif.connect w.hv ~dom ~backend_dom:w.dom0 ~nic () in
  let dom_opt = if account_cpu then Some dom else None in
  let stack =
    Mthread.Promise.run w.sim
      (Netstack.Stack.create w.sim ?dom:dom_opt ~netif (Netstack.Stack.Static (static_ip ip)))
  in
  { dom; nic; netif; stack }
