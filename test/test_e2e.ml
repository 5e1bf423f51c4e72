(* End-to-end integration tests: full transaction workloads through
   Xenic and every RDMA baseline, checking conservation invariants,
   exactly-once application, replication consistency, and progress. *)

open Xenic_cluster
open Xenic_proto
open Xenic_workload

let sb_params = { Smallbank.default_params with accounts_per_node = 500 }

let rw_params = { Retwis.default_params with keys_per_node = 500 }

let mk ?(features = Features.full) ~store_cfg ~buckets stack =
  System.create ~nodes:4 ~replication:3
    ~xenic:{ Xenic_system.default_params with features; cache_capacity = 256 }
    ~store_cfg ~buckets stack

let mk_sb =
  mk ~store_cfg:(Smallbank.store_cfg sb_params)
    ~buckets:(Smallbank.chained_buckets sb_params)

let mk_rw =
  mk ~store_cfg:(Retwis.store_cfg rw_params)
    ~buckets:(Retwis.chained_buckets rw_params)

(* Money conservation: concurrent transfers must preserve the total. *)
let test_conservation sys () =
  Smallbank.load sb_params sys;
  let before = Smallbank.total_money sb_params sys in
  let spec = Smallbank.transfer_spec sb_params ~nodes:sys.System.cfg.Config.nodes in
  let result = Driver.run sys spec ~concurrency:8 ~target:800 in
  Alcotest.(check bool)
    (Printf.sprintf "made progress (committed %d)" result.Driver.committed)
    true
    (result.Driver.committed > 0);
  let after = Smallbank.total_money sb_params sys in
  Alcotest.(check int64) "money conserved" before after

(* Replication consistency: after quiesce, every replica of every shard
   holds the same account totals. *)
let test_replica_consistency () =
  let sys = mk_sb System.Xenic in
  Smallbank.load sb_params sys;
  let nodes = sys.System.cfg.Config.nodes in
  let spec = Smallbank.spec sb_params ~nodes in
  ignore (Driver.run sys spec ~concurrency:8 ~target:600);
  for shard = 0 to nodes - 1 do
    let primary_total =
      Smallbank.total_money_replica sb_params sys ~node:shard ~shard
    in
    List.iter
      (fun backup ->
        let backup_total =
          Smallbank.total_money_replica sb_params sys ~node:backup ~shard
        in
        Alcotest.(check int64)
          (Printf.sprintf "shard %d replica at node %d" shard backup)
          primary_total backup_total)
      (Config.backups sys.System.cfg ~shard)
  done

(* Exactly-once increments: committed increments = final counter sum. *)
let test_exactly_once sys () =
  Retwis.load rw_params sys;
  let nodes = sys.System.cfg.Config.nodes in
  let spec = Retwis.increment_spec rw_params ~nodes in
  let result = Driver.run sys spec ~warmup_frac:0.0 ~concurrency:6 ~target:500 in
  let total = Retwis.total_count rw_params sys in
  Alcotest.(check int64)
    "sum of counters = committed increments"
    (Int64.of_int result.Driver.committed)
    total

(* The full Smallbank mix must run with a sane abort rate and nonzero
   throughput on every system. *)
let test_mix_progress sys () =
  Smallbank.load sb_params sys;
  let nodes = sys.System.cfg.Config.nodes in
  let spec = Smallbank.spec sb_params ~nodes in
  let result = Driver.run sys spec ~concurrency:8 ~target:800 in
  Alcotest.(check bool) "throughput > 0" true (result.Driver.tput_per_server > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "abort rate sane (%.3f)" result.Driver.abort_rate)
    true
    (result.Driver.abort_rate < 0.5);
  Alcotest.(check bool)
    (Printf.sprintf "median latency sane (%.1fus)" result.Driver.median_latency_us)
    true
    (result.Driver.median_latency_us > 1.0
    && result.Driver.median_latency_us < 10_000.0)

(* Retwis mix on Xenic: read-only transactions commit, counters move. *)
let test_retwis_mix () =
  let sys = mk_rw System.Xenic in
  Retwis.load rw_params sys;
  let nodes = sys.System.cfg.Config.nodes in
  let spec = Retwis.spec rw_params ~nodes in
  let result = Driver.run sys spec ~concurrency:8 ~target:800 in
  Alcotest.(check bool) "progress" true (result.Driver.committed >= 680);
  Alcotest.(check bool) "counters moved" true (Retwis.total_count rw_params sys > 0L)

(* Every commit path (local fast path, multi-hop, standard distributed)
   must be exercised by the transfer workload — and all of them must
   conserve money (checked by test_conservation). *)
let test_all_paths_taken () =
  let sys = mk_sb System.Xenic in
  Smallbank.load sb_params sys;
  let spec = Smallbank.transfer_spec sb_params ~nodes:sys.System.cfg.Config.nodes in
  ignore (Driver.run sys spec ~concurrency:8 ~target:800);
  let c = Metrics.counters (sys.System.metrics ()) in
  List.iter
    (fun path ->
      Alcotest.(check bool)
        (path ^ " exercised") true
        (Xenic_stats.Counter.get c path > 0.0))
    [ "txns_local"; "txns_multihop"; "txns_distributed" ]

(* Multi-shot transactions (§4.2 step 3): the write key is discovered
   by reading a pointer object, so execution needs a second EXECUTE
   round. Exactly-once semantics must hold on every system. *)
let test_multishot sys () =
  Retwis.load rw_params sys;
  let spec = Multishot.spec ~nodes:sys.System.cfg.Config.nodes in
  let result = Driver.run sys spec ~warmup_frac:0.0 ~concurrency:6 ~target:400 in
  Alcotest.(check bool) "progress" true (result.Driver.committed >= 400);
  (* Sum of counters over the target range = committed chases. *)
  Alcotest.(check int64) "exactly-once across rounds"
    (Int64.of_int result.Driver.committed)
    (Multishot.total sys)

(* Feature ablations must all be safe: every flag combination of the
   Fig 9 ladders preserves conservation. *)
let test_ablation_safety () =
  List.iter
    (fun (name, features) ->
      let sys = mk_sb ~features System.Xenic in
      Smallbank.load sb_params sys;
      let before = Smallbank.total_money sb_params sys in
      let spec =
        Smallbank.transfer_spec sb_params ~nodes:sys.System.cfg.Config.nodes
      in
      let result = Driver.run sys spec ~concurrency:6 ~target:400 in
      Alcotest.(check bool)
        (name ^ " progress") true
        (result.Driver.committed > 0);
      Alcotest.(check int64)
        (name ^ " conserves money")
        before
        (Smallbank.total_money sb_params sys))
    (Features.fig9a_steps @ Features.fig9b_steps)

(* Xenic outperforms the baselines on the Smallbank mix (the headline
   qualitative claim, at test scale). *)
let test_xenic_wins () =
  let run sys =
    Smallbank.load sb_params sys;
    let spec = Smallbank.spec sb_params ~nodes:sys.System.cfg.Config.nodes in
    (Driver.run sys spec ~concurrency:16 ~target:1200).Driver.tput_per_server
  in
  let xenic = run (mk_sb System.Xenic) in
  let drtmh =
    run (mk_sb System.Drtmh)
  in
  Alcotest.(check bool)
    (Printf.sprintf "Xenic (%.0f) > DrTM+H (%.0f)" xenic drtmh)
    true (xenic > drtmh)

let system_cases name ~mk_sb ~mk_rw =
  [
    Alcotest.test_case (name ^ " conservation") `Quick (fun () ->
        test_conservation (mk_sb ()) ());
    Alcotest.test_case (name ^ " exactly-once") `Quick (fun () ->
        test_exactly_once (mk_rw ()) ());
    Alcotest.test_case (name ^ " mix progress") `Quick (fun () ->
        test_mix_progress (mk_sb ()) ());
    Alcotest.test_case (name ^ " multi-shot") `Quick (fun () ->
        test_multishot (mk_rw ()) ());
  ]

let () =
  let xenic_only =
    [
      Alcotest.test_case "replica consistency" `Quick test_replica_consistency;
      Alcotest.test_case "retwis mix" `Quick test_retwis_mix;
      Alcotest.test_case "all commit paths" `Quick test_all_paths_taken;
      Alcotest.test_case "ablation safety" `Quick test_ablation_safety;
      Alcotest.test_case "beats DrTM+H" `Quick test_xenic_wins;
    ]
  in
  Alcotest.run "xenic_e2e"
    (List.map
       (fun stack ->
         (* Test names spell drtmh-nc as drtmh_nc. *)
         let name =
           String.map (function '-' -> '_' | c -> c) (System.stack_name stack)
         in
         ( name,
           system_cases name
             ~mk_sb:(fun () -> mk_sb stack)
             ~mk_rw:(fun () -> mk_rw stack)
           @ if stack = System.Xenic then xenic_only else [] ))
       System.stacks)
