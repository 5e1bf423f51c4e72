(* Tests for cluster topology, key encoding, storage, and membership. *)

open Xenic_cluster

let test_config_replicas () =
  let cfg = Config.make ~nodes:6 ~replication:3 in
  Alcotest.(check int) "primary" 2 (Config.primary cfg ~shard:2);
  Alcotest.(check (list int)) "backups" [ 3; 4 ] (Config.backups cfg ~shard:2);
  Alcotest.(check (list int)) "wrap" [ 0; 1 ] (Config.backups cfg ~shard:5);
  Alcotest.(check bool) "holds primary" true (Config.holds cfg ~shard:2 ~node:2);
  Alcotest.(check bool) "holds backup" true (Config.holds cfg ~shard:2 ~node:4);
  Alcotest.(check bool) "not holds" false (Config.holds cfg ~shard:2 ~node:5);
  Alcotest.(check (list int)) "backup shards" [ 3; 4 ]
    (List.sort compare (Config.backup_shards cfg ~node:5))

let test_config_invalid () =
  Alcotest.check_raises "replication too big"
    (Invalid_argument "Config.make: replication must be in [1, nodes]")
    (fun () -> ignore (Config.make ~nodes:2 ~replication:3));
  (* The largest representable cluster is bounded by the 8-bit shard
     field of the key layout. *)
  ignore (Config.make ~nodes:(Keyspace.max_shard + 1) ~replication:3);
  Alcotest.check_raises "nodes beyond shard field"
    (Invalid_argument "Config.make: nodes must be <= 256 (8-bit shard field)")
    (fun () -> ignore (Config.make ~nodes:(Keyspace.max_shard + 2) ~replication:3))

let test_keyspace_roundtrip () =
  List.iter
    (fun (shard, table, ordered, id) ->
      let k = Keyspace.make ~shard ~table ~ordered ~id in
      Alcotest.(check int) "shard" shard (Keyspace.shard k);
      Alcotest.(check int) "table" table (Keyspace.table k);
      Alcotest.(check bool) "ordered" ordered (Keyspace.ordered k);
      Alcotest.(check int) "id" id (Keyspace.id k))
    [
      (0, 0, false, 0);
      (5, 3, true, 123456);
      (255, 255, false, Keyspace.max_id);
      (17, 9, true, 1);
    ]

let test_keyspace_roundtrip_qcheck =
  QCheck.Test.make ~name:"keyspace roundtrip" ~count:500
    QCheck.(
      quad (int_bound Keyspace.max_shard) (int_bound Keyspace.max_table) bool
        (int_bound 1_000_000_000))
    (fun (shard, table, ordered, id) ->
      let k = Keyspace.make ~shard ~table ~ordered ~id in
      Keyspace.shard k = shard
      && Keyspace.table k = table
      && Keyspace.ordered k = ordered
      && Keyspace.id k = id)

let test_keyspace_ordering_preserved () =
  (* Within one (shard, table), key order must follow id order so B+
     tree range scans work on encoded keys. *)
  let k i = Keyspace.make ~shard:3 ~table:6 ~ordered:true ~id:i in
  Alcotest.(check bool) "monotone" true (k 1 < k 2 && k 2 < k 100_000)

(* The three hash-table layouts the stacks build. *)
let layouts =
  [
    ( "Robinhood",
      fun () ->
        Storage.Robinhood
          (Xenic_store.Robinhood.create ~segments:8 ~seg_size:64
             ~d_max:(Some 8) ~vsize:Bytes.length) );
    ( "chained",
      fun () -> Storage.Chained (Xenic_store.Chained.create ~buckets:16 ~b:8) );
    ( "Hopscotch",
      fun () ->
        Storage.Hopscotch (Xenic_store.Hopscotch.create ~capacity:256 ~h:8) );
  ]

(* Log-record apply on every layout: hash writes and deletes are
   version-guarded. *)
let test_storage_apply_read () =
  let cfg = Config.make ~nodes:3 ~replication:2 in
  List.iter
    (fun (name, table) ->
      let st = Storage.create cfg ~node:0 ~table in
      let k = Keyspace.make ~shard:0 ~table:0 ~ordered:false ~id:7 in
      let check what expect =
        Alcotest.(check (option (pair bytes int)))
          (name ^ ": " ^ what) expect (Storage.read st k)
      in
      Alcotest.(check bool) "holds own shard" true (Storage.holds st ~shard:0);
      Alcotest.(check bool) "holds backup shard" true
        (Storage.holds st ~shard:2);
      Alcotest.(check bool) "not shard 1" false (Storage.holds st ~shard:1);
      Storage.apply st (Op.Put (k, Bytes.of_string "hello")) ~seq:3 ~stamp:0;
      check "value" (Some (Bytes.of_string "hello", 3));
      (* Idempotent replay with an older version must not regress. *)
      Storage.apply st (Op.Put (k, Bytes.of_string "stale")) ~seq:2 ~stamp:0;
      check "not regressed" (Some (Bytes.of_string "hello", 3));
      Storage.apply st (Op.Delete k) ~seq:3 ~stamp:0;
      check "stale delete ignored" (Some (Bytes.of_string "hello", 3));
      Alcotest.(check (option bytes))
        (name ^ ": value only") (Some (Bytes.of_string "hello"))
        (Storage.read_value st k);
      Storage.apply st (Op.Delete k) ~seq:4 ~stamp:0;
      check "deleted" None)
    layouts

(* Ordered writes apply in stamp order on log apply, and unconditionally
   on a primary's COMMIT write. *)
let test_storage_ordered () =
  let cfg = Config.make ~nodes:2 ~replication:1 in
  let _, table = List.hd layouts in
  let st = Storage.create cfg ~node:0 ~table in
  let k i = Keyspace.make ~shard:0 ~table:5 ~ordered:true ~id:i in
  List.iter
    (fun i -> Storage.apply st (Op.Put (k i, Bytes.make 4 'x')) ~seq:1 ~stamp:i)
    [ 3; 1; 2 ];
  (match Storage.read st (k 2) with
  | Some (_, 0) -> ()
  | _ -> Alcotest.fail "ordered read");
  Storage.apply st (Op.Put (k 2, Bytes.make 4 'y')) ~seq:1 ~stamp:5;
  Storage.apply st (Op.Put (k 2, Bytes.make 4 'z')) ~seq:1 ~stamp:4;
  Alcotest.(check (option bytes)) "stamp order" (Some (Bytes.make 4 'y'))
    (Storage.read_value st (k 2));
  Storage.write st (Op.Put (k 2, Bytes.make 4 'w')) ~seq:1;
  Alcotest.(check (option bytes)) "commit write" (Some (Bytes.make 4 'w'))
    (Storage.read_value st (k 2))

let test_membership_failure_detection () =
  let engine = Xenic_sim.Engine.create () in
  let cfg = Config.make ~nodes:4 ~replication:2 in
  let m = Membership.create engine cfg ~lease_ns:100_000.0 in
  let events = ref [] in
  Membership.on_reconfigure m (fun ~epoch ~dead -> events := (epoch, dead) :: !events);
  Membership.start m;
  Xenic_sim.Engine.after engine 500_000.0 (fun () -> Membership.fail_node m ~node:2);
  ignore (Xenic_sim.Engine.run ~until:2_000_000.0 engine);
  Alcotest.(check bool) "node 2 dead" false (Membership.is_alive m 2);
  Alcotest.(check bool) "others alive" true
    (List.for_all (Membership.is_alive m) [ 0; 1; 3 ]);
  match !events with
  | [ (1, [ 2 ]) ] -> ()
  | _ -> Alcotest.failf "unexpected events (%d)" (List.length !events)

(* [stop] must let the engine drain: a started membership's renewal
   and expiry loops otherwise keep the event queue non-empty forever,
   so an unbounded [Engine.run] would never return. *)
let test_membership_stop () =
  let engine = Xenic_sim.Engine.create ~strict:true () in
  let cfg = Config.make ~nodes:3 ~replication:2 in
  let m = Membership.create engine cfg ~lease_ns:50_000.0 in
  Membership.start m;
  Xenic_sim.Engine.after engine 200_000.0 (fun () -> Membership.stop m);
  ignore (Xenic_sim.Engine.run engine);
  (* Loops exit at their next wakeup, within lease/2 of the stop. *)
  Alcotest.(check bool) "queue drained shortly after stop" true
    (Xenic_sim.Engine.now engine < 300_000.0);
  Alcotest.(check bool) "no one declared dead" true
    (List.for_all (Membership.is_alive m) [ 0; 1; 2 ]);
  Membership.stop m;
  ignore (Xenic_sim.Engine.run engine)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "xenic_cluster"
    [
      ( "config",
        [
          Alcotest.test_case "replicas" `Quick test_config_replicas;
          Alcotest.test_case "invalid" `Quick test_config_invalid;
        ] );
      ( "keyspace",
        [
          Alcotest.test_case "roundtrip" `Quick test_keyspace_roundtrip;
          Alcotest.test_case "ordering" `Quick test_keyspace_ordering_preserved;
          qt test_keyspace_roundtrip_qcheck;
        ] );
      ( "storage",
        [
          Alcotest.test_case "apply/read" `Quick test_storage_apply_read;
          Alcotest.test_case "ordered tables" `Quick test_storage_ordered;
        ] );
      ( "membership",
        [
          Alcotest.test_case "failure detection" `Quick test_membership_failure_detection;
          Alcotest.test_case "stop drains" `Quick test_membership_stop;
        ] );
    ]
