open Testlib
module P = Mthread.Promise
open P.Infix

(* ---- wire ---- *)

let roundtrip msg =
  let encoded = Ssh.Ssh_wire.encode_msg msg in
  Ssh.Ssh_wire.decode_msg encoded

let test_wire_roundtrips () =
  let cases =
    [
      Ssh.Ssh_wire.Kexinit
        { cookie = String.make 16 'c'; kex_algs = [ "dh-group-sim" ]; ciphers = [ "chacha20" ];
          macs = [ "hmac-sha256" ] };
      Ssh.Ssh_wire.Kexdh_init { e = 123456789 };
      Ssh.Ssh_wire.Kexdh_reply { host_key = "HK"; f = 42; signature = "SIG" };
      Ssh.Ssh_wire.Newkeys;
      Ssh.Ssh_wire.Service_request "ssh-connection";
      Ssh.Ssh_wire.Channel_open { channel = 1; window = 65536 };
      Ssh.Ssh_wire.Channel_request_exec { channel = 1; command = "uname -a" };
      Ssh.Ssh_wire.Channel_data { channel = 1; data = pattern 100 };
      Ssh.Ssh_wire.Channel_close { channel = 1 };
      Ssh.Ssh_wire.Disconnect { reason = 2; description = "bye" };
    ]
  in
  List.iter (fun m -> check_bool "roundtrip" true (roundtrip m = m)) cases

let test_packet_seal_plaintext () =
  let payload = "PAYLOAD" in
  let packet = Ssh.Ssh_wire.seal ~cipher:None ~mac_key:None ~seq:0 payload in
  check_int "8-byte aligned" 0 (String.length packet mod 8);
  match Ssh.Ssh_wire.unseal ~cipher:None ~mac_key:None ~seq:0 packet with
  | Some (p, consumed) ->
    check_string "payload" payload p;
    check_int "consumed all" (String.length packet) consumed
  | None -> Alcotest.fail "complete packet must unseal"

let test_packet_seal_encrypted_mac () =
  let key = Crypto.Sha256.digest "k" in
  let nonce = String.sub (Crypto.Sha256.digest "n") 0 12 in
  let cipher s = Crypto.Chacha20.crypt ~key ~nonce s in
  let mac_key = Crypto.Sha256.digest "m" in
  let packet = Ssh.Ssh_wire.seal ~cipher:(Some cipher) ~mac_key:(Some mac_key) ~seq:5 "secret" in
  (* tampering breaks the MAC *)
  let tampered = Bytes.of_string packet in
  Bytes.set tampered 6 (Char.chr (Char.code (Bytes.get tampered 6) lxor 1));
  (match
     Ssh.Ssh_wire.unseal ~cipher:(Some cipher) ~mac_key:(Some mac_key) ~seq:5
       (Bytes.to_string tampered)
   with
  | exception Ssh.Ssh_wire.Decode_error _ -> ()
  | _ -> Alcotest.fail "tampering must be detected");
  (* wrong sequence number also breaks it (replay protection) *)
  (match Ssh.Ssh_wire.unseal ~cipher:(Some cipher) ~mac_key:(Some mac_key) ~seq:6 packet with
  | exception Ssh.Ssh_wire.Decode_error _ -> ()
  | _ -> Alcotest.fail "replay must be detected");
  match Ssh.Ssh_wire.unseal ~cipher:(Some cipher) ~mac_key:(Some mac_key) ~seq:5 packet with
  | Some (p, _) -> check_string "decrypts" "secret" p
  | None -> Alcotest.fail "must unseal"

let test_packet_incremental () =
  let packet = Ssh.Ssh_wire.seal ~cipher:None ~mac_key:None ~seq:0 "incremental" in
  for cut = 0 to String.length packet - 1 do
    match Ssh.Ssh_wire.unseal ~cipher:None ~mac_key:None ~seq:0 (String.sub packet 0 cut) with
    | None -> ()
    | Some _ -> Alcotest.fail "partial packet must not unseal"
  done

(* ---- end-to-end over the simulated network ---- *)

let ssh_world () =
  let w = make_world () in
  let server = make_host w ~platform:Platform.xen_extent ~name:"sshd" ~ip:"10.0.0.22" () in
  let client = make_host w ~platform:Platform.linux_native ~name:"ssh" ~ip:"10.0.0.9" () in
  (w, server, client)

let host_secret = "very secret host key material"

let start_server w (server : host) =
  Core.Apps.Net.Ssh.Server.create w.sim (Netstack.Stack.tcp server.stack) ~port:22 ~host_secret
    (fun command -> P.return ("ran: " ^ command))

let test_exec_end_to_end () =
  let w, server, client = ssh_world () in
  let srv = start_server w server in
  let session =
    Core.Apps.Net.Ssh.Client.connect w.sim (Netstack.Stack.tcp client.stack)
      ~dst:(Netstack.Stack.address server.stack) ()
    >>= fun c ->
    Core.Apps.Net.Ssh.Client.exec c "uptime" >>= fun out1 ->
    Core.Apps.Net.Ssh.Client.exec c "whoami" >>= fun out2 ->
    Core.Apps.Net.Ssh.Client.close c >>= fun () -> P.return (out1, out2)
  in
  let out1, out2 = run w session in
  check_string "first command" "ran: uptime" out1;
  check_string "second command (same connection)" "ran: whoami" out2;
  check_int "one session" 1 (Core.Apps.Net.Ssh.Server.sessions srv);
  check_int "two commands" 2 (Core.Apps.Net.Ssh.Server.commands_run srv)

let test_host_key_pinning () =
  let w, server, client = ssh_world () in
  ignore (start_server w server);
  let good = Ssh.Session.public_host_key ~host_secret in
  let session =
    Core.Apps.Net.Ssh.Client.connect w.sim (Netstack.Stack.tcp client.stack)
      ~dst:(Netstack.Stack.address server.stack) ~known_host_key:good ()
    >>= fun c ->
    check_string "observed key matches pin" (Crypto.Sha256.hex good)
      (Crypto.Sha256.hex (Core.Apps.Net.Ssh.Client.host_key c));
    Core.Apps.Net.Ssh.Client.close c
  in
  run w session;
  (* wrong pin -> rejected *)
  let bad = Crypto.Sha256.digest "impostor" in
  match
    run w
      (Core.Apps.Net.Ssh.Client.connect w.sim (Netstack.Stack.tcp client.stack)
         ~dst:(Netstack.Stack.address server.stack) ~known_host_key:bad ())
  with
  | exception Ssh.Transport.Host_key_mismatch -> ()
  | _ -> Alcotest.fail "host key mismatch must abort"

let test_traffic_is_encrypted () =
  let w, server, client = ssh_world () in
  ignore (start_server w server);
  let secret_cmd = "SECRET-COMMAND-MARKER" in
  let wire = Buffer.create 4096 in
  ignore
  @@ Netsim.Bridge.tap w.bridge (fun ~dir ~link:_ ~time_ns:_ frame ->
      if dir = Netsim.Tx then Buffer.add_string wire (Bytestruct.to_string frame));
  run w
    (Core.Apps.Net.Ssh.Client.connect w.sim (Netstack.Stack.tcp client.stack)
       ~dst:(Netstack.Stack.address server.stack) ()
     >>= fun c ->
     Core.Apps.Net.Ssh.Client.exec c secret_cmd >>= fun _ -> Core.Apps.Net.Ssh.Client.close c);
  let hay = Buffer.contents wire in
  let contains needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "command name never on the wire in clear" false (contains secret_cmd);
  check_bool "version banner is in clear (pre-kex)" true (contains "SSH-2.0-")

let test_multiple_clients () =
  let w, server, client = ssh_world () in
  let srv = start_server w server in
  let one i =
    Core.Apps.Net.Ssh.Client.connect w.sim (Netstack.Stack.tcp client.stack)
      ~dst:(Netstack.Stack.address server.stack) ()
    >>= fun c ->
    Core.Apps.Net.Ssh.Client.exec c (Printf.sprintf "job-%d" i) >>= fun out ->
    Core.Apps.Net.Ssh.Client.close c >>= fun () -> P.return out
  in
  let outs = run w (P.all (List.init 5 one)) in
  List.iteri (fun i out -> check_string "each job" (Printf.sprintf "ran: job-%d" i) out) outs;
  check_int "five sessions" 5 (Core.Apps.Net.Ssh.Server.sessions srv)

let () =
  Alcotest.run "ssh"
    [
      ( "wire",
        [
          Alcotest.test_case "message roundtrips" `Quick test_wire_roundtrips;
          Alcotest.test_case "plaintext packet" `Quick test_packet_seal_plaintext;
          Alcotest.test_case "encrypted packet + MAC" `Quick test_packet_seal_encrypted_mac;
          Alcotest.test_case "incremental framing" `Quick test_packet_incremental;
        ] );
      ( "session",
        [
          Alcotest.test_case "exec end to end" `Quick test_exec_end_to_end;
          Alcotest.test_case "host key pinning" `Quick test_host_key_pinning;
          Alcotest.test_case "traffic is encrypted" `Quick test_traffic_is_encrypted;
          Alcotest.test_case "multiple clients" `Quick test_multiple_clients;
        ] );
    ]
