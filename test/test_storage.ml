open Testlib
module P = Mthread.Promise
open P.Infix

let sim_run sim p = P.run sim p

(* ---- Kv ---- *)

let test_kv_basic () =
  let kv = Storage.Kv.of_pairs [ ("a", "1"); ("b", "2") ] in
  check_bool "get" true (Storage.Kv.get kv "a" = Some "1");
  Storage.Kv.set kv "c" "3";
  check_int "size" 3 (Storage.Kv.size kv);
  Storage.Kv.remove kv "a";
  check_bool "removed" false (Storage.Kv.mem kv "a");
  Alcotest.(check (list string)) "sorted keys" [ "b"; "c" ] (Storage.Kv.keys kv)

let test_kv_serialize_roundtrip () =
  let kv = Storage.Kv.of_pairs [ ("key one", pattern 500); (String.make 100 'k', ""); ("", "v") ] in
  let kv' = Storage.Kv.deserialize (Storage.Kv.serialize kv) in
  check_int "size" (Storage.Kv.size kv) (Storage.Kv.size kv');
  List.iter
    (fun k -> check_bool ("key " ^ k) true (Storage.Kv.get kv k = Storage.Kv.get kv' k))
    (Storage.Kv.keys kv)

let test_kv_deserialize_corrupt () =
  (match Storage.Kv.deserialize (bs "garbage!") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad magic rejected");
  let good = Storage.Kv.serialize (Storage.Kv.of_pairs [ ("a", "1") ]) in
  let truncated = Bytestruct.sub good 0 (Bytestruct.length good - 1) in
  match Storage.Kv.deserialize truncated with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "truncation rejected"

let test_kv_persist_load () =
  let sim = Engine.Sim.create () in
  let backend = Storage.Backend.of_disk (Blockdev.Disk.create sim ~sectors:1024 ()) in
  let kv = Storage.Kv.of_pairs (List.init 50 (fun i -> (Printf.sprintf "key%02d" i, pattern (i * 7)))) in
  ignore (sim_run sim (Storage.Kv.persist kv backend));
  let kv' = sim_run sim (Storage.Kv.load backend) in
  check_int "all keys back" 50 (Storage.Kv.size kv');
  check_bool "spot check" true (Storage.Kv.get kv' "key31" = Some (pattern (31 * 7)))

(* ---- Btree ---- *)

let btree_world ?(sectors = 16384) () =
  let sim = Engine.Sim.create () in
  let disk = Blockdev.Disk.create sim ~sectors () in
  (sim, disk, Storage.Backend.of_disk disk)

let test_btree_set_get () =
  let sim, _, backend = btree_world () in
  let t = sim_run sim (Storage.Btree.create backend) in
  ignore (sim_run sim (Storage.Btree.set t "hello" "world"));
  check_bool "get" true (sim_run sim (Storage.Btree.get t "hello") = Some "world");
  check_bool "missing" true (sim_run sim (Storage.Btree.get t "nope") = None);
  ignore (sim_run sim (Storage.Btree.set t "hello" "again"));
  check_bool "overwrite" true (sim_run sim (Storage.Btree.get t "hello") = Some "again")

let test_btree_many_keys_split () =
  let sim, _, backend = btree_world () in
  let t = sim_run sim (Storage.Btree.create backend) in
  let n = 500 in
  for i = 0 to n - 1 do
    ignore (sim_run sim (Storage.Btree.set t (Printf.sprintf "k%04d" i) (string_of_int i)))
  done;
  check_int "count" n (sim_run sim (Storage.Btree.count t));
  for i = 0 to n - 1 do
    let v = sim_run sim (Storage.Btree.get t (Printf.sprintf "k%04d" i)) in
    if v <> Some (string_of_int i) then Alcotest.fail (Printf.sprintf "lost key %d" i)
  done

let test_btree_fold_range_ordered () =
  let sim, _, backend = btree_world () in
  let t = sim_run sim (Storage.Btree.create backend) in
  List.iter
    (fun k -> ignore (sim_run sim (Storage.Btree.set t k k)))
    [ "delta"; "alpha"; "echo"; "charlie"; "bravo" ];
  let all = List.rev (sim_run sim (Storage.Btree.fold_range t (fun acc k _ -> k :: acc) [])) in
  Alcotest.(check (list string)) "in order" [ "alpha"; "bravo"; "charlie"; "delta"; "echo" ] all;
  let mid =
    List.rev
      (sim_run sim (Storage.Btree.fold_range t ~lo:"bravo" ~hi:"delta" (fun acc k _ -> k :: acc) []))
  in
  Alcotest.(check (list string)) "half-open range" [ "bravo"; "charlie" ] mid

let test_btree_delete () =
  let sim, _, backend = btree_world () in
  let t = sim_run sim (Storage.Btree.create backend) in
  ignore (sim_run sim (Storage.Btree.set t "a" "1"));
  ignore (sim_run sim (Storage.Btree.set t "b" "2"));
  ignore (sim_run sim (Storage.Btree.delete t "a"));
  check_bool "deleted" true (sim_run sim (Storage.Btree.get t "a") = None);
  check_bool "others kept" true (sim_run sim (Storage.Btree.get t "b") = Some "2");
  check_int "count" 1 (sim_run sim (Storage.Btree.count t))

let test_btree_persistence_across_reopen () =
  let sim, _, backend = btree_world () in
  let t = sim_run sim (Storage.Btree.create backend) in
  for i = 0 to 99 do
    ignore (sim_run sim (Storage.Btree.set t (Printf.sprintf "p%03d" i) (pattern i)))
  done;
  ignore (sim_run sim (Storage.Btree.commit t));
  let t2 = sim_run sim (Storage.Btree.open_ backend) in
  check_int "count after reopen" 100 (sim_run sim (Storage.Btree.count t2));
  check_bool "value intact" true (sim_run sim (Storage.Btree.get t2 "p042") = Some (pattern 42));
  check_int "generation preserved" (Storage.Btree.generation t) (Storage.Btree.generation t2)

let test_btree_uncommitted_not_durable () =
  let sim, _, backend = btree_world () in
  let t = sim_run sim (Storage.Btree.create backend) in
  ignore (sim_run sim (Storage.Btree.set t "committed" "yes"));
  ignore (sim_run sim (Storage.Btree.commit t));
  ignore (sim_run sim (Storage.Btree.set t "volatile" "lost"));
  check_bool "dirty" true (Storage.Btree.dirty t);
  let t2 = sim_run sim (Storage.Btree.open_ backend) in
  check_bool "committed visible" true (sim_run sim (Storage.Btree.get t2 "committed") = Some "yes");
  check_bool "uncommitted invisible" true (sim_run sim (Storage.Btree.get t2 "volatile") = None)

let test_btree_torn_write_recovers_old_root () =
  let sim, disk, backend = btree_world () in
  let t = sim_run sim (Storage.Btree.create backend) in
  ignore (sim_run sim (Storage.Btree.set t "stable" "1"));
  ignore (sim_run sim (Storage.Btree.commit t));
  (* Fill enough data that the next commit spans several sectors, then
     tear it. *)
  for i = 0 to 60 do
    ignore (sim_run sim (Storage.Btree.set t (Printf.sprintf "big%02d" i) (pattern 300)))
  done;
  Blockdev.Disk.inject_torn_write disk ~sectors:1;
  (match sim_run sim (Storage.Btree.commit t) with
  | exception Blockdev.Disk.Torn_write -> ()
  | () -> Alcotest.fail "commit should have torn");
  let t2 = sim_run sim (Storage.Btree.open_ backend) in
  check_bool "old root intact" true (sim_run sim (Storage.Btree.get t2 "stable") = Some "1");
  check_bool "torn data invisible" true (sim_run sim (Storage.Btree.get t2 "big00") = None);
  check_int "generation is the pre-tear one" 2 (Storage.Btree.generation t2)

let test_btree_compact_reclaims () =
  let sim, _, backend = btree_world () in
  let t = sim_run sim (Storage.Btree.create backend) in
  for round = 0 to 9 do
    ignore round;
    for i = 0 to 30 do
      ignore (sim_run sim (Storage.Btree.set t (Printf.sprintf "c%02d" i) (pattern 100)))
    done;
    ignore (sim_run sim (Storage.Btree.commit t))
  done;
  let before = Storage.Btree.log_bytes t in
  ignore (sim_run sim (Storage.Btree.compact t));
  check_bool "log shrank" true (Storage.Btree.log_bytes t < before);
  check_int "data survives" 31 (sim_run sim (Storage.Btree.count t));
  check_bool "value survives" true (sim_run sim (Storage.Btree.get t "c07") = Some (pattern 100))

let test_btree_open_empty_fails () =
  let sim, _, backend = btree_world () in
  match sim_run sim (Storage.Btree.open_ backend) with
  | exception Storage.Btree.Corrupt _ -> ()
  | _ -> Alcotest.fail "empty device has no valid commit"

let prop_btree_matches_map =
  qtest ~count:30 "btree agrees with Map under random ops"
    QCheck.(list (pair (int_bound 50) (option (string_of_size (QCheck.Gen.int_range 0 20)))))
    (fun ops ->
      let sim, _, backend = btree_world () in
      let t = sim_run sim (Storage.Btree.create backend) in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          let key = Printf.sprintf "key%02d" k in
          match v with
          | Some value ->
            Hashtbl.replace model key value;
            ignore (sim_run sim (Storage.Btree.set t key value))
          | None ->
            Hashtbl.remove model key;
            ignore (sim_run sim (Storage.Btree.delete t key)))
        ops;
      ignore (sim_run sim (Storage.Btree.commit t));
      let t2 = sim_run sim (Storage.Btree.open_ backend) in
      Hashtbl.fold
        (fun k v acc -> acc && sim_run sim (Storage.Btree.get t2 k) = Some v)
        model
        (sim_run sim (Storage.Btree.count t2) = Hashtbl.length model))

(* ---- Fat ---- *)

let fat_world () =
  let sim = Engine.Sim.create () in
  let backend = Storage.Backend.of_ram ~sectors:65536 () in
  (sim, backend, sim_run sim (Storage.Fat.format backend ()))

let test_fat_create_write_read () =
  let sim, _, fs = fat_world () in
  ignore (sim_run sim (Storage.Fat.write_file fs "/hello.txt" (bs "file contents")));
  let back = sim_run sim (Storage.Fat.read_file fs "/hello.txt") in
  check_string "roundtrip" "file contents" (Bytestruct.to_string back);
  check_int "size" 13 (sim_run sim (Storage.Fat.file_size fs "/hello.txt"))

let test_fat_large_file_chains () =
  let sim, _, fs = fat_world () in
  let data = pattern 50_000 in
  ignore (sim_run sim (Storage.Fat.write_file fs "/big.bin" (bs data)));
  let back = sim_run sim (Storage.Fat.read_file fs "/big.bin") in
  check_bool "50 KB across clusters" true (Bytestruct.to_string back = data)

let test_fat_overwrite_frees_old_chain () =
  let sim, _, fs = fat_world () in
  ignore (sim_run sim (Storage.Fat.write_file fs "/f" (bs (pattern 40_000))));
  let free_after_big = Storage.Fat.free_clusters fs in
  ignore (sim_run sim (Storage.Fat.write_file fs "/f" (bs "tiny")));
  check_bool "clusters reclaimed" true (Storage.Fat.free_clusters fs > free_after_big);
  check_string "new contents" "tiny"
    (Bytestruct.to_string (sim_run sim (Storage.Fat.read_file fs "/f")))

let test_fat_subdirectories () =
  let sim, _, fs = fat_world () in
  ignore (sim_run sim (Storage.Fat.mkdir fs "/www"));
  ignore (sim_run sim (Storage.Fat.mkdir fs "/www/static"));
  ignore (sim_run sim (Storage.Fat.write_file fs "/www/static/index.html" (bs "<html>")));
  check_bool "nested file" true
    (Bytestruct.to_string (sim_run sim (Storage.Fat.read_file fs "/www/static/index.html"))
    = "<html>");
  Alcotest.(check (list string)) "listing" [ "static" ] (sim_run sim (Storage.Fat.list_dir fs "/www"));
  check_bool "is_directory" true (sim_run sim (Storage.Fat.is_directory fs "/www/static"))

let test_fat_errors () =
  let sim, _, fs = fat_world () in
  ignore (sim_run sim (Storage.Fat.write_file fs "/a" (bs "x")));
  (match sim_run sim (Storage.Fat.read_file fs "/missing") with
  | exception Storage.Fat.Not_found_path _ -> ()
  | _ -> Alcotest.fail "missing file");
  (match sim_run sim (Storage.Fat.create fs "/a") with
  | exception Storage.Fat.Already_exists _ -> ()
  | _ -> Alcotest.fail "duplicate create");
  ignore (sim_run sim (Storage.Fat.mkdir fs "/d"));
  ignore (sim_run sim (Storage.Fat.write_file fs "/d/child" (bs "y")));
  (match sim_run sim (Storage.Fat.remove fs "/d") with
  | exception Storage.Fat.Directory_not_empty _ -> ()
  | _ -> Alcotest.fail "non-empty dir removal");
  (match sim_run sim (Storage.Fat.read_file fs "/d") with
  | exception Storage.Fat.Is_a_directory _ -> ()
  | _ -> Alcotest.fail "read dir");
  match sim_run sim (Storage.Fat.read_file fs "/a/b") with
  | exception Storage.Fat.Not_a_directory _ -> ()
  | _ -> Alcotest.fail "file as dir"

let test_fat_remove () =
  let sim, _, fs = fat_world () in
  ignore (sim_run sim (Storage.Fat.write_file fs "/gone" (bs (pattern 10_000))));
  let free_before = Storage.Fat.free_clusters fs in
  ignore (sim_run sim (Storage.Fat.remove fs "/gone"));
  check_bool "clusters freed" true (Storage.Fat.free_clusters fs > free_before);
  check_bool "gone" true (not (sim_run sim (Storage.Fat.exists fs "/gone")))

let test_fat_sector_iterator () =
  (* Paper 3.5.2: reads return one sector at a time, trimmed at EOF. *)
  let sim, _, fs = fat_world () in
  let n = 1234 in
  ignore (sim_run sim (Storage.Fat.write_file fs "/iter" (bs (pattern n))));
  let sizes = ref [] in
  let out = Buffer.create n in
  ignore
    (sim_run sim
       (Storage.Fat.read_sectors fs "/iter" (fun sector ->
            sizes := Bytestruct.length sector :: !sizes;
            Buffer.add_string out (Bytestruct.to_string sector);
            P.return ())));
  check_bool "content equal" true (Buffer.contents out = pattern n);
  (match List.rev !sizes with
  | [] -> Alcotest.fail "no sectors"
  | sectors ->
    let rec chk = function
      | [ last ] -> check_int "final sector trimmed" (n mod 512) last
      | s :: rest ->
        check_int "full sector" 512 s;
        chk rest
      | [] -> ()
    in
    chk sectors)

let test_fat_mount_roundtrip () =
  let sim = Engine.Sim.create () in
  let backend = Storage.Backend.of_ram ~sectors:65536 () in
  let fs = sim_run sim (Storage.Fat.format backend ()) in
  ignore (sim_run sim (Storage.Fat.write_file fs "/persist" (bs (pattern 5000))));
  let fs2 = sim_run sim (Storage.Fat.mount backend) in
  check_bool "file visible after mount" true
    (Bytestruct.to_string (sim_run sim (Storage.Fat.read_file fs2 "/persist")) = pattern 5000);
  check_int "free clusters agree" (Storage.Fat.free_clusters fs) (Storage.Fat.free_clusters fs2)

let prop_fat_write_read =
  qtest ~count:25 "fat write/read any size"
    QCheck.(int_bound 20_000)
    (fun n ->
      let sim, _, fs = fat_world () in
      ignore (sim_run sim (Storage.Fat.write_file fs "/f" (bs (pattern n))));
      Bytestruct.to_string (sim_run sim (Storage.Fat.read_file fs "/f")) = pattern n)

(* ---- Memcache over the network ---- *)

let test_memcache_end_to_end () =
  let w = make_world () in
  let server = make_host w ~platform:Platform.xen_extent ~name:"mc" ~ip:"10.0.0.1" () in
  let client = make_host w ~platform:Platform.linux_pv ~name:"cl" ~ip:"10.0.0.2" () in
  let srv = Core.Apps.Net.Memcache.Server.create (Netstack.Stack.tcp server.stack) ~port:11211 in
  let session =
    Core.Apps.Net.Memcache.Client.connect (Netstack.Stack.tcp client.stack)
      ~dst:(Netstack.Stack.address server.stack) ~port:11211
    >>= fun c ->
    Core.Apps.Net.Memcache.Client.set c ~key:"greeting" ~value:"hello memcache" >>= fun () ->
    Core.Apps.Net.Memcache.Client.get c "greeting" >>= fun v1 ->
    Core.Apps.Net.Memcache.Client.get c "missing" >>= fun v2 ->
    Core.Apps.Net.Memcache.Client.delete c "greeting" >>= fun deleted ->
    Core.Apps.Net.Memcache.Client.delete c "greeting" >>= fun deleted_again ->
    Core.Apps.Net.Memcache.Client.stats c >>= fun stats ->
    Core.Apps.Net.Memcache.Client.close c >>= fun () ->
    P.return (v1, v2, deleted, deleted_again, stats)
  in
  let v1, v2, deleted, deleted_again, stats = run w session in
  check_bool "get hit" true (v1 = Some "hello memcache");
  check_bool "get miss" true (v2 = None);
  check_bool "delete" true deleted;
  check_bool "second delete" false deleted_again;
  check_bool "stats has cmd_get" true (List.mem_assoc "cmd_get" stats);
  check_int "server counted gets" 2 (Core.Apps.Net.Memcache.Server.gets srv)

let test_memcache_binary_safe_values () =
  let w = make_world () in
  let server = make_host w ~platform:Platform.xen_extent ~name:"mc2" ~ip:"10.0.0.1" () in
  let client = make_host w ~platform:Platform.linux_pv ~name:"cl2" ~ip:"10.0.0.2" () in
  ignore (Core.Apps.Net.Memcache.Server.create (Netstack.Stack.tcp server.stack) ~port:11211);
  let payload = pattern 2000 in
  let session =
    Core.Apps.Net.Memcache.Client.connect (Netstack.Stack.tcp client.stack)
      ~dst:(Netstack.Stack.address server.stack) ~port:11211
    >>= fun c ->
    Core.Apps.Net.Memcache.Client.set c ~key:"bin" ~value:payload >>= fun () ->
    Core.Apps.Net.Memcache.Client.get c "bin"
  in
  check_bool "binary value roundtrip" true (run w session = Some payload)

let test_memcache_garbage_command () =
  let w = make_world () in
  let server = make_host w ~platform:Platform.xen_extent ~name:"mc3" ~ip:"10.0.0.1" () in
  let client = make_host w ~platform:Platform.linux_pv ~name:"cl3" ~ip:"10.0.0.2" () in
  ignore (Core.Apps.Net.Memcache.Server.create (Netstack.Stack.tcp server.stack) ~port:11211);
  let reply =
    run w
      (Netstack.Tcp.connect (Netstack.Stack.tcp client.stack)
         ~dst:(Netstack.Stack.address server.stack) ~dst_port:11211
       >>= fun flow ->
       Netstack.Tcp.write flow (bs "frobnicate all the things\r\n") >>= fun () ->
       Device_sig.Reader.line (tcp_reader flow))
  in
  check_bool "ERROR reply" true (reply = Some "ERROR")

(* A remote set with a length outside [0, 1 MiB] is refused with
   CLIENT_ERROR, and the connection keeps serving. *)
let test_memcache_bad_length () =
  let w = make_world () in
  let server = make_host w ~platform:Platform.xen_extent ~name:"mc4" ~ip:"10.0.0.1" () in
  let client = make_host w ~platform:Platform.linux_pv ~name:"cl4" ~ip:"10.0.0.2" () in
  let srv = Core.Apps.Net.Memcache.Server.create (Netstack.Stack.tcp server.stack) ~port:11211 in
  let replies =
    run w
      (Netstack.Tcp.connect (Netstack.Stack.tcp client.stack)
         ~dst:(Netstack.Stack.address server.stack) ~dst_port:11211
       >>= fun flow ->
       let reader = tcp_reader flow in
       let ask cmd = Netstack.Tcp.write flow (bs cmd) >>= fun () -> Device_sig.Reader.line reader in
       ask "set k 0 0 -5\r\n" >>= fun negative ->
       ask (Printf.sprintf "set k 0 0 %d\r\n" ((1 lsl 20) + 1)) >>= fun huge ->
       ask "set k 0 0 2\r\nok\r\n" >>= fun stored -> P.return [ negative; huge; stored ])
  in
  Alcotest.(check (list (option string)))
    "replies"
    [ Some "CLIENT_ERROR bad data chunk"; Some "CLIENT_ERROR bad data chunk"; Some "STORED" ]
    replies;
  check_int "only the valid set stored" 1 (Core.Apps.Net.Memcache.Server.sets srv)

let () =
  Alcotest.run "storage"
    [
      ( "kv",
        [
          Alcotest.test_case "basic" `Quick test_kv_basic;
          Alcotest.test_case "serialize roundtrip" `Quick test_kv_serialize_roundtrip;
          Alcotest.test_case "corrupt input" `Quick test_kv_deserialize_corrupt;
          Alcotest.test_case "persist/load" `Quick test_kv_persist_load;
        ] );
      ( "btree",
        [
          Alcotest.test_case "set/get" `Quick test_btree_set_get;
          Alcotest.test_case "many keys (splits)" `Quick test_btree_many_keys_split;
          Alcotest.test_case "fold_range ordered" `Quick test_btree_fold_range_ordered;
          Alcotest.test_case "delete" `Quick test_btree_delete;
          Alcotest.test_case "persistence across reopen" `Quick test_btree_persistence_across_reopen;
          Alcotest.test_case "uncommitted not durable" `Quick test_btree_uncommitted_not_durable;
          Alcotest.test_case "torn write recovers old root" `Quick
            test_btree_torn_write_recovers_old_root;
          Alcotest.test_case "compact reclaims" `Quick test_btree_compact_reclaims;
          Alcotest.test_case "open empty fails" `Quick test_btree_open_empty_fails;
          prop_btree_matches_map;
        ] );
      ( "fat",
        [
          Alcotest.test_case "create/write/read" `Quick test_fat_create_write_read;
          Alcotest.test_case "large file chains" `Quick test_fat_large_file_chains;
          Alcotest.test_case "overwrite frees chain" `Quick test_fat_overwrite_frees_old_chain;
          Alcotest.test_case "subdirectories" `Quick test_fat_subdirectories;
          Alcotest.test_case "errors" `Quick test_fat_errors;
          Alcotest.test_case "remove" `Quick test_fat_remove;
          Alcotest.test_case "sector iterator" `Quick test_fat_sector_iterator;
          Alcotest.test_case "mount roundtrip" `Quick test_fat_mount_roundtrip;
          prop_fat_write_read;
        ] );
      ( "memcache",
        [
          Alcotest.test_case "end to end" `Quick test_memcache_end_to_end;
          Alcotest.test_case "binary values" `Quick test_memcache_binary_safe_values;
          Alcotest.test_case "garbage command" `Quick test_memcache_garbage_command;
          Alcotest.test_case "bad set length" `Quick test_memcache_bad_length;
        ] );
    ]
