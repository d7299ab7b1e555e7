(* The dynamic web appliance of 4.4: a Twitter-like service storing tweets
   in the append-only copy-on-write B-tree on a paravirtual block device,
   served over HTTP — then "rebooted" to show the data survives.

     dune exec examples/web_twitter.exe *)

module P = Mthread.Promise
open P.Infix
module H = Uhttp.Http_wire

let () =
  let w = Core.World.create ~seed:80 () in
  let { Core.World.sim; hv; dom0; _ } = w in
  let { Core.World.dom; stack; _ } = Core.World.host w ~name:"twitter" ~ip:"10.0.0.80" () in

  (* Storage: a disk behind the blkif split driver, with the B-tree on top. *)
  let disk = Blockdev.Disk.create sim ~sectors:65536 () in
  let blkif = Devices.Blkif.connect hv ~dom ~backend_dom:dom0 ~disk () in
  let backend = Storage.Backend.of_blkif blkif in
  let store = P.run sim (Storage.Btree.create backend) in

  (* HTTP API. *)
  let seq = ref 0 in
  let router = Uhttp.Router.create () in
  Uhttp.Router.add router H.POST "/tweet/:user" (fun params req ->
      let user = List.assoc "user" params in
      incr seq;
      let key = Printf.sprintf "%s/%06d" user !seq in
      Storage.Btree.set store key req.H.body >>= fun () ->
      Storage.Btree.commit store >>= fun () ->
      P.return (H.response ~status:201 key));
  Uhttp.Router.add router H.GET "/tweets/:user" (fun params _req ->
      let user = List.assoc "user" params in
      Storage.Btree.fold_range store ~lo:(user ^ "/") ~hi:(user ^ "0")
        (fun acc k v -> Formats.Json.Object [ ("id", Formats.Json.String k); ("text", Formats.Json.String v) ] :: acc)
        []
      >>= fun tweets ->
      P.return
        (H.response
           ~headers:[ ("Content-Type", "application/json") ]
           ~status:200
           (Formats.Json.to_string (Formats.Json.Array tweets))));
  ignore (Core.Apps.Net.Http.of_router sim ~dom ~tcp:(Netstack.Stack.tcp stack) ~port:80 router);

  (* A client posts and reads. *)
  let client =
    (Core.World.host w ~platform:Platform.linux_native ~account_cpu:false ~name:"client"
       ~ip:"10.0.0.9" ())
      .stack
  in
  let server_ip = Netstack.Stack.address stack in
  let session =
    Core.Apps.Net.Http_client.connect (Netstack.Stack.tcp client) ~dst:server_ip ~port:80 >>= fun c ->
    Core.Apps.Net.Http_client.post c "/tweet/alice" ~body:"unikernels are small" >>= fun r1 ->
    Core.Apps.Net.Http_client.post c "/tweet/alice" ~body:"and they boot fast" >>= fun r2 ->
    Core.Apps.Net.Http_client.post c "/tweet/bob" ~body:"hello world" >>= fun _ ->
    Core.Apps.Net.Http_client.get c "/tweets/alice" >>= fun timeline ->
    Core.Apps.Net.Http_client.close c >>= fun () -> P.return (r1, r2, timeline)
  in
  let r1, r2, timeline = P.run sim session in
  Printf.printf "posted: %s, %s\n" r1.H.resp_body r2.H.resp_body;
  Printf.printf "alice's timeline (JSON): %s\n" timeline.H.resp_body;
  (match Formats.Json.parse timeline.H.resp_body with
  | Formats.Json.Array items -> Printf.printf "parsed back: %d tweets\n" (List.length items)
  | _ -> prerr_endline "unexpected JSON shape");

  (* Reboot: reopen the B-tree from the same disk — committed tweets
     survive (torn writes would roll back to the last commit). *)
  let store2 = P.run sim (Storage.Btree.open_ backend) in
  let count = P.run sim (Storage.Btree.count store2) in
  Printf.printf "after reboot: %d tweets recovered (generation %d, %d kB of log)\n" count
    (Storage.Btree.generation store2)
    (Storage.Btree.log_bytes store2 / 1024)
