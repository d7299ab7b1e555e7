open Testlib
module P = Mthread.Promise

let xmpp_world () =
  let w = make_world () in
  let server = make_host w ~platform:Platform.xen_extent ~name:"jabber" ~ip:"10.0.0.52" () in
  let c1 = make_host w ~platform:Platform.linux_native ~name:"alice-host" ~ip:"10.0.0.11" () in
  let c2 = make_host w ~platform:Platform.linux_native ~name:"bob-host" ~ip:"10.0.0.12" () in
  let srv =
    Core.Apps.Net.Xmpp.Server.create (Netstack.Stack.tcp server.stack) ~port:5222
      ~domain:"example.org" ()
  in
  (w, server, c1, c2, srv)

let connect w (client : host) server jid =
  run w
    (Core.Apps.Net.Xmpp.Client.connect (Netstack.Stack.tcp client.stack)
       ~dst:(Netstack.Stack.address server.stack) ~jid ())

let test_live_messaging () =
  let w, server, c1, c2, srv = xmpp_world () in
  let alice = connect w c1 server "alice@example.org" in
  let bob = connect w c2 server "bob@example.org" in
  Alcotest.(check (list string)) "both online" [ "alice@example.org"; "bob@example.org" ]
    (Core.Apps.Net.Xmpp.Server.online srv);
  run w (Core.Apps.Net.Xmpp.Client.send alice ~to_jid:"bob@example.org" ~body:"hi bob <&> friends");
  (match run w (Core.Apps.Net.Xmpp.Client.receive bob) with
  | Some m ->
    check_string "from" "alice@example.org" m.Xmpp.from_jid;
    check_string "body with escaping" "hi bob <&> friends" m.Xmpp.body
  | None -> Alcotest.fail "bob got nothing");
  run w (Core.Apps.Net.Xmpp.Client.send bob ~to_jid:"alice@example.org" ~body:"hi alice");
  (match run w (Core.Apps.Net.Xmpp.Client.receive alice) with
  | Some m -> check_string "reply" "hi alice" m.Xmpp.body
  | None -> Alcotest.fail "alice got nothing");
  check_int "two routed" 2 (Core.Apps.Net.Xmpp.Server.routed srv)

let test_offline_delivery () =
  let w, server, c1, c2, srv = xmpp_world () in
  let alice = connect w c1 server "alice@example.org" in
  run w (Core.Apps.Net.Xmpp.Client.send alice ~to_jid:"bob@example.org" ~body:"queued 1");
  run w (Core.Apps.Net.Xmpp.Client.send alice ~to_jid:"bob@example.org" ~body:"queued 2");
  Engine.Sim.run w.sim;
  check_bool "bob not online" true
    (not (List.mem "bob@example.org" (Core.Apps.Net.Xmpp.Server.online srv)));
  (* bob connects and the queue flushes in order *)
  let bob = connect w c2 server "bob@example.org" in
  let m1 = run w (Core.Apps.Net.Xmpp.Client.receive bob) in
  let m2 = run w (Core.Apps.Net.Xmpp.Client.receive bob) in
  check_bool "first queued" true (match m1 with Some m -> m.Xmpp.body = "queued 1" | None -> false);
  check_bool "second queued" true (match m2 with Some m -> m.Xmpp.body = "queued 2" | None -> false)

let test_bad_stream_rejected () =
  let w, server, c1, _, srv = xmpp_world () in
  (match connect w c1 server "mallory@evil.net" with
  | exception Xmpp.Stream_error _ -> ()
  | _ -> Alcotest.fail "stream to the wrong domain must be refused");
  check_bool "error counted" true (Core.Apps.Net.Xmpp.Server.errors srv > 0)

let test_disconnect_goes_offline () =
  let w, server, c1, _, srv = xmpp_world () in
  let alice = connect w c1 server "alice@example.org" in
  run w (Core.Apps.Net.Xmpp.Client.close alice);
  Engine.Sim.run w.sim;
  check_bool "alice offline after close" true (Core.Apps.Net.Xmpp.Server.online srv = [])

(* A JID that reconnects keeps its new session when the old one closes. *)
let test_reconnect_keeps_new_session () =
  let w, server, c1, c2, srv = xmpp_world () in
  let old_alice = connect w c1 server "alice@example.org" in
  let alice = connect w c1 server "alice@example.org" in
  run w (Core.Apps.Net.Xmpp.Client.close old_alice);
  Engine.Sim.run w.sim;
  Alcotest.(check (list string)) "alice still online" [ "alice@example.org" ]
    (Core.Apps.Net.Xmpp.Server.online srv);
  let bob = connect w c2 server "bob@example.org" in
  run w (Core.Apps.Net.Xmpp.Client.send bob ~to_jid:"alice@example.org" ~body:"still there?");
  match run w (Core.Apps.Net.Xmpp.Client.receive alice) with
  | Some m -> check_string "delivered live" "still there?" m.Xmpp.body
  | None -> Alcotest.fail "alice's new session got nothing"

let () =
  Alcotest.run "xmpp"
    [
      ( "xmpp",
        [
          Alcotest.test_case "live messaging" `Quick test_live_messaging;
          Alcotest.test_case "offline delivery" `Quick test_offline_delivery;
          Alcotest.test_case "bad stream rejected" `Quick test_bad_stream_rejected;
          Alcotest.test_case "disconnect goes offline" `Quick test_disconnect_goes_offline;
          Alcotest.test_case "reconnect keeps the new session" `Quick
            test_reconnect_keeps_new_session;
        ] );
    ]
