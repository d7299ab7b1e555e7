(** The simulated host every test, benchmark, CLI and example runs on:
    one simulator, a hypervisor, a running dom0, one bridge and a
    toolstack — plus static-IP PV guests on that bridge.

    Construction order is part of the contract: [Netsim.Bridge.create]
    splits the simulator's PRNG, so a world is always built simulator →
    hypervisor → dom0 → bridge → toolstack, and a host domain → NIC →
    netif → stack. Every world with the same seed therefore replays the
    same random draws. *)

type t = {
  sim : Engine.Sim.t;
  hv : Xensim.Hypervisor.t;
  dom0 : Xensim.Domain.t;  (** running, 512 MiB, Linux PV; backs every vif *)
  bridge : Netsim.Bridge.t;
  toolstack : Xensim.Toolstack.t;
}

type host = {
  dom : Xensim.Domain.t;
  nic : Netsim.Nic.t;
  netif : Devices.Netif.t;
  stack : Netstack.Stack.t;
}

(** [create ()] builds a world. [seed] defaults to 42; [seal_patch]
    (default [true]) is the hypervisor's seal patch; [static_fdb]
    (default [false]) is the bridge's static forwarding table, see
    [Netsim.Bridge.create]. *)
val create : ?seed:int -> ?seal_patch:bool -> ?static_fdb:bool -> unit -> t

(** [host w ~name ~ip ()] brings up a running 64 MiB guest with a vif on
    [w]'s bridge (MAC [100 + domid]) and a static [ip]/24 stack, running
    the simulator until the stack is ready. [platform] defaults to
    [Platform.xen_extent], [vcpus] to 1; [bandwidth_bps] and
    [latency_ns] are the link's, defaulting as [Netsim.Bridge.new_nic].
    [account_cpu:false] detaches the stack from the domain's vCPU model:
    an infinitely fast load generator, as the paper's client machines are
    relative to the appliance under test. *)
val host :
  t ->
  ?platform:Platform.t ->
  ?vcpus:int ->
  ?account_cpu:bool ->
  ?bandwidth_bps:int ->
  ?latency_ns:int ->
  name:string ->
  ip:string ->
  unit ->
  host

(** [static_ip "10.0.0.2"] is that address with a /24 netmask and no
    gateway. *)
val static_ip : string -> Netstack.Ipv4.config
