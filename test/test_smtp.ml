open Testlib
module P = Mthread.Promise
open P.Infix

let smtp_world () =
  let w = make_world () in
  let server = make_host w ~platform:Platform.xen_extent ~name:"mx" ~ip:"10.0.0.25" () in
  let client = make_host w ~platform:Platform.linux_native ~name:"mua" ~ip:"10.0.0.9" () in
  let srv = Core.Apps.Net.Smtp.Server.create (Netstack.Stack.tcp server.stack) ~port:25 ~domain:"example.org" () in
  (w, server, client, srv)

let test_deliver () =
  let w, server, client, srv = smtp_world () in
  run w
    (Core.Apps.Net.Smtp.Client.send (Netstack.Stack.tcp client.stack)
       ~dst:(Netstack.Stack.address server.stack) ~helo:"mua.example.net"
       ~sender:"alice@example.net"
       ~recipients:[ "bob@example.org"; "carol@example.org" ]
       ~body:"Subject: hi\n\nunikernels are neat" ());
  match Core.Apps.Net.Smtp.Server.delivered srv with
  | [ m ] ->
    check_string "sender" "alice@example.net" m.Smtp.sender;
    Alcotest.(check (list string)) "recipients" [ "bob@example.org"; "carol@example.org" ]
      m.Smtp.recipients;
    check_bool "body intact" true (m.Smtp.body = "Subject: hi\n\nunikernels are neat")
  | l -> Alcotest.fail (Printf.sprintf "expected 1 message, got %d" (List.length l))

let test_relay_denied () =
  let w, server, client, srv = smtp_world () in
  (match
     run w
       (Core.Apps.Net.Smtp.Client.send (Netstack.Stack.tcp client.stack)
          ~dst:(Netstack.Stack.address server.stack) ~helo:"h" ~sender:"a@b"
          ~recipients:[ "victim@elsewhere.net" ] ~body:"spam" ())
   with
  | exception Smtp.Smtp_error (550, _) -> ()
  | _ -> Alcotest.fail "relay must be denied");
  check_int "nothing delivered" 0 (List.length (Core.Apps.Net.Smtp.Server.delivered srv));
  check_int "rejection counted" 1 (Core.Apps.Net.Smtp.Server.rejected_rcpts srv)

let test_dot_stuffing () =
  let w, server, client, srv = smtp_world () in
  let body = "line one\n.hidden dot line\n..double" in
  run w
    (Core.Apps.Net.Smtp.Client.send (Netstack.Stack.tcp client.stack)
       ~dst:(Netstack.Stack.address server.stack) ~helo:"h" ~sender:"a@b"
       ~recipients:[ "bob@example.org" ] ~body ());
  match Core.Apps.Net.Smtp.Server.delivered srv with
  | [ m ] -> check_bool "dot-stuffed body survives" true (m.Smtp.body = body)
  | _ -> Alcotest.fail "one message expected"

let test_sequencing_errors () =
  let w, server, client, _ = smtp_world () in
  (* speak raw SMTP: RCPT before MAIL *)
  let session =
    Netstack.Tcp.connect (Netstack.Stack.tcp client.stack)
      ~dst:(Netstack.Stack.address server.stack) ~dst_port:25
    >>= fun flow ->
    let reader = tcp_reader flow in
    let line () =
      Device_sig.Reader.line reader >>= function
      | Some l -> P.return l
      | None -> P.fail Exit
    in
    line () >>= fun _banner ->
    Netstack.Tcp.write flow (bs "RCPT TO:<bob@example.org>\r\n") >>= fun () ->
    line () >>= fun resp1 ->
    Netstack.Tcp.write flow (bs "DATA\r\n") >>= fun () ->
    line () >>= fun resp2 ->
    Netstack.Tcp.write flow (bs "QUIT\r\n") >>= fun () ->
    line () >>= fun _ -> P.return (resp1, resp2)
  in
  let r1, r2 = run w session in
  check_string "rcpt without mail" "503" (String.sub r1 0 3);
  check_string "data without rcpt" "503" (String.sub r2 0 3)

let test_multiple_messages_per_session () =
  let w, server, client, srv = smtp_world () in
  ignore client;
  (* our client sends one message per session; do two sessions *)
  for i = 1 to 2 do
    run w
      (Core.Apps.Net.Smtp.Client.send (Netstack.Stack.tcp client.stack)
         ~dst:(Netstack.Stack.address server.stack) ~helo:"h" ~sender:"a@b"
         ~recipients:[ "bob@example.org" ] ~body:(Printf.sprintf "msg %d" i) ())
  done;
  check_int "both delivered in order" 2 (List.length (Core.Apps.Net.Smtp.Server.delivered srv));
  ignore server

let () =
  Alcotest.run "smtp"
    [
      ( "smtp",
        [
          Alcotest.test_case "deliver" `Quick test_deliver;
          Alcotest.test_case "relay denied" `Quick test_relay_denied;
          Alcotest.test_case "dot stuffing" `Quick test_dot_stuffing;
          Alcotest.test_case "sequencing errors" `Quick test_sequencing_errors;
          Alcotest.test_case "two sessions" `Quick test_multiple_messages_per_session;
        ] );
    ]
