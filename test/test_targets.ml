(* Cross-target equivalence (§5.4 workflow): the same appliance code,
   configured against each backend via [Core.Apps], must produce
   byte-identical wire responses on all three targets — only the timing
   signature may differ. An external PV host on the same bridge speaks
   raw UDP/TCP to the appliance, so the bytes compared are exactly what
   would cross the network. *)

open Testlib
module P = Mthread.Promise

let ( >>= ) = P.bind
let appliance_ip = "10.0.0.53"

let boot_appliance w ts ~target ~config ~serve =
  run w
    (Core.Appliance.start w.hv ts
       (Core.Boot_spec.make ~backend_dom:w.dom0 ~bridge:w.bridge ~config
          ~ip:(static_ip appliance_ip) ~target ())
       ~main:(fun h ->
         serve (Core.Appliance.Handle.networked h);
         P.sleep w.sim (Engine.Sim.sec 3600) >>= fun () -> P.return 0))
  |> Core.Appliance.Handle.networked

(* ---- DNS: scripted query sequence, raw payload capture ---- *)

let dns_script =
  [
    ("host-1.example.org", 0x1001);
    ("host-7.example.org", 0x1002);
    ("host-42.example.org", 0x1003);
    ("host-7.example.org", 0x1004);
    ("host-199.example.org", 0x1005);
  ]

let dns_run target =
  let w = make_world () in
  let ts = w.toolstack in
  let db = Dns.Db.of_zone (Dns.Zone.synthesize ~origin:"example.org" ~entries:200) in
  let engine = Dns.Server.Mirage { memoize = true } in
  let _networked =
    boot_appliance w ts ~target
      ~config:(Core.Appliance.dns_appliance ())
      ~serve:(fun n ->
        let dom = n.Core.Appliance.unikernel.Core.Unikernel.domain in
        match Core.Appliance.hostnet n with
        | Some h -> ignore (Core.Apps.Host.Dns.create w.sim ~dom ~udp:h ~db ~engine ())
        | None ->
          ignore
            (Core.Apps.Net.Dns.create w.sim ~dom
               ~udp:(Netstack.Stack.udp (Core.Appliance.stack n))
               ~db ~engine ()))
  in
  let client = make_host w ~platform:Platform.linux_native ~name:"resolver" ~ip:"10.0.0.9" () in
  let udp = Netstack.Stack.udp client.stack in
  let dst = Netstack.Ipaddr.of_string appliance_ip in
  let one (name, id) =
    let sent = Engine.Sim.now w.sim in
    let reply, waker = P.wait () in
    let src_port = 20000 + (id land 0xff) in
    Netstack.Udp.listen udp ~port:src_port (fun ~src:_ ~src_port:_ ~dst_port:_ ~payload ->
        P.wakeup waker (Bytestruct.to_string payload, Engine.Sim.now w.sim - sent));
    Netstack.Udp.sendto udp ~src_port ~dst ~dst_port:53
      (Dns.Dns_wire.encode (Dns.Dns_wire.query ~id (Dns.Dns_name.of_string name) Dns.Dns_wire.A))
    >>= fun () ->
    reply >>= fun r ->
    Netstack.Udp.unlisten udp ~port:src_port;
    P.return r
  in
  let rec go acc = function
    | [] -> P.return (List.rev acc)
    | q :: qs -> one q >>= fun r -> go (r :: acc) qs
  in
  run w (go [] dns_script)

(* ---- HTTP: scripted request sequence over raw TCP ---- *)

let http_script = [ "/"; "/tweets/alice"; "/tweets/bob"; "/" ]

let http_run target =
  let w = make_world () in
  let ts = w.toolstack in
  let router = Uhttp.Router.create () in
  Uhttp.Router.add router Uhttp.Http_wire.GET "/" (fun _ _ ->
      P.return (Uhttp.Http_wire.response ~status:200 "index"));
  Uhttp.Router.add router Uhttp.Http_wire.GET "/tweets/:user" (fun params _ ->
      P.return (Uhttp.Http_wire.response ~status:200 ("tweets of " ^ List.assoc "user" params)));
  let _networked =
    boot_appliance w ts ~target
      ~config:(Core.Appliance.web_server ())
      ~serve:(fun n ->
        let dom = n.Core.Appliance.unikernel.Core.Unikernel.domain in
        match Core.Appliance.hostnet n with
        | Some h -> ignore (Core.Apps.Host.Http.of_router w.sim ~dom ~tcp:h ~port:80 router)
        | None ->
          ignore
            (Core.Apps.Net.Http.of_router w.sim ~dom
               ~tcp:(Netstack.Stack.tcp (Core.Appliance.stack n))
               ~port:80 router))
  in
  let client = make_host w ~platform:Platform.linux_native ~name:"browser" ~ip:"10.0.0.9" () in
  let tcp = Netstack.Stack.tcp client.stack in
  let dst = Netstack.Ipaddr.of_string appliance_ip in
  let fetch path =
    let sent = Engine.Sim.now w.sim in
    Netstack.Tcp.connect tcp ~dst ~dst_port:80 >>= fun flow ->
    Netstack.Tcp.write flow
      (bs ("GET " ^ path ^ " HTTP/1.1\r\nHost: sim\r\nConnection: close\r\n\r\n"))
    >>= fun () ->
    let buf = Buffer.create 256 in
    let rec drain () =
      Netstack.Tcp.read flow >>= function
      | Some b ->
        Buffer.add_string buf (Bytestruct.to_string b);
        drain ()
      | None -> P.return ()
    in
    drain () >>= fun () ->
    Netstack.Tcp.close flow >>= fun () ->
    P.return (Buffer.contents buf, Engine.Sim.now w.sim - sent)
  in
  let rec go acc = function
    | [] -> P.return (List.rev acc)
    | p :: ps -> fetch p >>= fun r -> go (r :: acc) ps
  in
  run w (go [] http_script)

(* ---- TCP appliances: a raw-TCP client on an external PV host ---- *)

(* Start a TCP service on the appliance's transport for its target:
   host-kernel sockets on Posix_sockets, the netstack otherwise. *)
let serve_tcp ~net ~host n =
  match Core.Appliance.hostnet n with
  | Some h -> host h
  | None -> net (Netstack.Stack.tcp (Core.Appliance.stack n))

(* Boot the appliance running [serve w], then run [session w tcp dst]
   from an external client host. *)
let tcp_run target ~serve session =
  let w = make_world () in
  let ts = w.toolstack in
  let _networked =
    boot_appliance w ts ~target ~config:(Core.Appliance.web_server ()) ~serve:(serve w)
  in
  let client = make_host w ~platform:Platform.linux_native ~name:"client" ~ip:"10.0.0.9" () in
  run w (session w (Netstack.Stack.tcp client.stack) (Netstack.Ipaddr.of_string appliance_ip))

let open_conn tcp dst ~port =
  Netstack.Tcp.connect tcp ~dst ~dst_port:port >>= fun flow -> P.return (flow, tcp_reader flow)

(* Write [bytes] on [flow], then read [n] reply lines from [reader],
   CRLF-joined, with the virtual time the exchange took. *)
let exchange w flow bytes reader n =
  let sent = Engine.Sim.now w.sim in
  let rec lines acc = function
    | 0 -> P.return (String.concat "\r\n" (List.rev acc), Engine.Sim.now w.sim - sent)
    | k -> (
      Device_sig.Reader.line reader >>= function
      | Some l -> lines (l :: acc) (k - 1)
      | None -> P.fail (Failure "connection closed mid-reply"))
  in
  Netstack.Tcp.write flow (bs bytes) >>= fun () -> lines [] n

(* ---- memcache: scripted text-protocol session, (command, reply lines) ---- *)

let memcache_script =
  [
    ("set greeting 0 0 5\r\nhello\r\n", 1);
    ("get greeting\r\n", 3);
    ("get missing\r\n", 1);
    ("delete greeting\r\n", 1);
    ("delete greeting\r\n", 1);
    ("stats\r\n", 6);
    ("frobnicate all the things\r\n", 1);
  ]

let memcache_run target =
  tcp_run target
    ~serve:(fun _ ->
      serve_tcp
        ~net:(fun tcp -> ignore (Core.Apps.Net.Memcache.Server.create tcp ~port:11211))
        ~host:(fun h -> ignore (Core.Apps.Host.Memcache.Server.create h ~port:11211)))
    (fun w tcp dst ->
      open_conn tcp dst ~port:11211 >>= fun (flow, reader) ->
      let rec go acc = function
        | [] -> P.return (List.rev acc)
        | (cmd, n) :: rest -> exchange w flow cmd reader n >>= fun r -> go (r :: acc) rest
      in
      go [] memcache_script)

(* ---- XMPP: stream, offline queueing, live routing, a refused stream ---- *)

let stanza el = Formats.Xml.to_string el ^ "\n"

let stream ?(domain = "example.org") jid =
  stanza (Formats.Xml.Element ("stream", [ ("from", jid); ("to", domain) ], []))

let message to_jid body =
  let body = Formats.Xml.Element ("body", [], [ Formats.Xml.Text body ]) in
  stanza (Formats.Xml.Element ("message", [ ("to", to_jid) ], [ body ]))

let xmpp_run target =
  let domain = "example.org" in
  tcp_run target
    ~serve:(fun _ ->
      serve_tcp
        ~net:(fun tcp -> ignore (Core.Apps.Net.Xmpp.Server.create tcp ~port:5222 ~domain ()))
        ~host:(fun h -> ignore (Core.Apps.Host.Xmpp.Server.create h ~port:5222 ~domain ())))
    (fun w tcp dst ->
      let conn () = open_conn tcp dst ~port:5222 in
      conn () >>= fun (alice, alice_r) ->
      exchange w alice (stream "alice@example.org") alice_r 1 >>= fun r1 ->
      (* bob is offline: the message queues, and bob's stream flushes it;
         the TCP handshake orders bob's stream after alice's message *)
      Netstack.Tcp.write alice (bs (message "bob@example.org" "queued")) >>= fun () ->
      conn () >>= fun (bob, bob_r) ->
      exchange w bob (stream "bob@example.org") bob_r 2 >>= fun r2 ->
      exchange w bob (message "alice@example.org" "live") alice_r 1 >>= fun r3 ->
      conn () >>= fun (mallory, mallory_r) ->
      exchange w mallory (stream ~domain:"evil.net" "mallory@evil.net") mallory_r 1 >>= fun r4 ->
      P.return [ r1; r2; r3; r4 ])

(* ---- SSH: command output (the wire bytes follow each run's PRNG draws) ---- *)

let ssh_commands = [ "uptime"; "whoami" ]

let ssh_run target =
  let host_secret = "target-independent host key" in
  let handler command = P.return ("ran: " ^ command) in
  tcp_run target
    ~serve:(fun w ->
      serve_tcp
        ~net:(fun tcp ->
          ignore (Core.Apps.Net.Ssh.Server.create w.sim tcp ~port:22 ~host_secret handler))
        ~host:(fun h ->
          ignore (Core.Apps.Host.Ssh.Server.create w.sim h ~port:22 ~host_secret handler)))
    (fun w tcp dst ->
      Core.Apps.Net.Ssh.Client.connect w.sim tcp ~dst
        ~known_host_key:(Ssh.Session.public_host_key ~host_secret) ()
      >>= fun c ->
      let rec go acc = function
        | [] -> Core.Apps.Net.Ssh.Client.close c >>= fun () -> P.return (List.rev acc)
        | cmd :: rest -> Core.Apps.Net.Ssh.Client.exec c cmd >>= fun out -> go (out :: acc) rest
      in
      go [] ssh_commands)

(* ---- the equivalence assertions ---- *)

let check_equivalent what runs =
  let payloads (_, rs) = List.map fst rs in
  let latencies (_, rs) = List.map snd rs in
  match runs with
  | ((_, first) as ref_run) :: rest ->
    List.iter
      (fun ((t, _) as r) ->
        check_bool
          (Printf.sprintf "%s: %s responses byte-identical to reference" what t)
          true
          (payloads r = payloads ref_run))
      rest;
    List.iteri
      (fun i ((ti, _) as ri) ->
        check_bool
          (Printf.sprintf "%s: %s latencies positive" what ti)
          true
          (List.for_all (fun l -> l > 0) (latencies ri));
        List.iteri
          (fun j ((tj, _) as rj) ->
            if j > i then
              check_bool
                (Printf.sprintf "%s: %s and %s timing signatures differ" what ti tj)
                true
                (latencies ri <> latencies rj))
          runs)
      runs;
    ignore first
  | [] -> assert false

let all_targets () =
  List.map (fun t -> (Core.Target.to_string t, t)) Core.Target.all

let test_dns_equivalence () =
  check_equivalent "dns" (List.map (fun (name, t) -> (name, dns_run t)) (all_targets ()))

let test_http_equivalence () =
  check_equivalent "http" (List.map (fun (name, t) -> (name, http_run t)) (all_targets ()))

let test_memcache_equivalence () =
  check_equivalent "memcache" (List.map (fun (name, t) -> (name, memcache_run t)) (all_targets ()))

let test_xmpp_equivalence () =
  check_equivalent "xmpp" (List.map (fun (name, t) -> (name, xmpp_run t)) (all_targets ()))

let test_ssh_same_output () =
  List.iter
    (fun (name, t) ->
      Alcotest.(check (list string))
        (name ^ ": ssh exec output")
        (List.map (fun c -> "ran: " ^ c) ssh_commands)
        (ssh_run t))
    (all_targets ())

(* ---- per-target library closures (Table 2 becomes target-dependent) ---- *)

let libs_of target =
  let p = Core.Specialize.plan ~target (Core.Appliance.dns_appliance ()) Core.Specialize.Standard in
  (match Core.Specialize.verify p with
  | Ok () -> ()
  | Error e -> Alcotest.failf "plan for %s does not verify: %s" (Core.Target.to_string target) e);
  List.map (fun l -> l.Core.Library_registry.lib_name) p.Core.Specialize.libs

let test_closures_swap_backends () =
  let has l n = List.mem n l in
  let sockets = libs_of Core.Target.Posix_sockets in
  check_bool "posix-sockets links hostsock" true (has sockets "hostsock");
  check_bool "posix-sockets drops the netstack" true
    (not (List.exists (has sockets) [ "tcp"; "udp"; "netif"; "ring"; "ethernet" ]));
  let direct = libs_of Core.Target.Posix_direct in
  check_bool "posix-direct links tuntap" true (has direct "tuntap");
  check_bool "posix-direct keeps the netstack" true (has direct "udp" && has direct "ipv4");
  check_bool "posix-direct drops the PV driver" true
    (not (has direct "netif" || has direct "ring"));
  let xen = libs_of Core.Target.Xen_direct in
  check_bool "xen-direct keeps the PV driver" true (has xen "netif");
  check_bool "xen-direct links no host shims" true
    (not (has xen "hostsock" || has xen "tuntap" || has xen "hostfile"))

let test_verify_rejects_netstack_on_sockets () =
  let xen_plan =
    Core.Specialize.plan ~target:Core.Target.Xen_direct (Core.Appliance.dns_appliance ())
      Core.Specialize.Standard
  in
  match Core.Specialize.verify { xen_plan with Core.Specialize.target = Core.Target.Posix_sockets } with
  | Ok () -> Alcotest.fail "posix-sockets plan carrying the netstack must not verify"
  | Error e ->
    check_bool "error names the offending library" true
      (let mem s sub =
         let n = String.length sub in
         let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
         go 0
       in
       mem e "must not link")

let () =
  Alcotest.run "targets"
    [
      ( "targets",
        [
          Alcotest.test_case "dns answers are target-independent" `Quick test_dns_equivalence;
          Alcotest.test_case "http responses are target-independent" `Quick test_http_equivalence;
          Alcotest.test_case "memcache replies are target-independent" `Quick
            test_memcache_equivalence;
          Alcotest.test_case "xmpp stanzas are target-independent" `Quick test_xmpp_equivalence;
          Alcotest.test_case "ssh exec output is target-independent" `Quick test_ssh_same_output;
          Alcotest.test_case "library closures swap backends" `Quick test_closures_swap_backends;
          Alcotest.test_case "verify rejects netstack on posix-sockets" `Quick
            test_verify_rejects_netstack_on_sockets;
        ] );
    ]
