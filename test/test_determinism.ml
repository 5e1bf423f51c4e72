(* Determinism & serializability seed sweep.

   Every run here uses a strict (sanitizer) engine — Driver.run fails
   the run on any leftover lock, undrained log, lost wakeup or leaked
   sim primitive — and attaches the serializability oracle, whose
   whole-history check must come back [Serializable]. Repeating a seed
   must reproduce the run bit for bit: committed/aborted counts,
   latency quantiles (compared as hex-exact floats) and every perf
   counter. *)

open Xenic_cluster
open Xenic_proto
open Xenic_workload

let sb_params = { Smallbank.default_params with accounts_per_node = 500 }

let tpcc_params =
  {
    Tpcc.default_params with
    warehouses_per_node = 2;
    customers_per_district = 20;
    items = 200;
  }

(* A stack on a strict engine over [nodes] (default 4) with 3-way
   replication. *)
let mk ?(nodes = 4) ?armed ~store_cfg ~buckets ~cache_capacity stack () =
  System.create ~strict:true ?armed ~nodes ~replication:3
    ~xenic:{ Xenic_system.default_params with cache_capacity }
    ~store_cfg ~buckets stack

let mk_sb =
  mk ~store_cfg:(Smallbank.store_cfg sb_params)
    ~buckets:(Smallbank.chained_buckets sb_params) ~cache_capacity:256

(* A textual digest of everything the run produced. Floats are printed
   with %h (hex, lossless), so equal digests mean bit-identical stats. *)
let fingerprint sys (result : Driver.result) oracle =
  let counters =
    Xenic_stats.Counter.to_list (Metrics.counters (sys.System.metrics ()))
  in
  String.concat "\n"
    (Printf.sprintf "committed=%d aborted=%d oracle_txns=%d" result.Driver.committed
       result.Driver.aborted (Oracle.txn_count oracle)
    :: Printf.sprintf "median=%h p99=%h abort_rate=%h duration=%h"
         result.Driver.median_latency_us result.Driver.p99_latency_us
         result.Driver.abort_rate result.Driver.duration_ns
    :: List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) counters)

(* One full run: load, inject [crash] (a one-event scenario, if any),
   drive, oracle check. Returns the digest. *)
let run_once ?crash ~mk ~load ~spec_of ~concurrency ~target seed =
  let sys = mk () in
  let oracle = Oracle.create () in
  sys.System.set_oracle oracle;
  load sys;
  let spec = spec_of sys in
  Option.iter
    (fun (at_ns, node) ->
      Xenic_scenario.Scenario.(
        inject
          (make ~name:"crash" ~nodes:sys.System.cfg.Config.nodes
             [ { at_ns; action = Crash node } ])
          sys ~seed:0L))
    crash;
  let result = Driver.run sys spec ~seed ~concurrency ~target in
  Alcotest.(check bool)
    (Printf.sprintf "%s seed %Ld: made progress" sys.System.name seed)
    true
    (result.Driver.committed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%s seed %Ld: oracle recorded commits" sys.System.name seed)
    true
    (Oracle.txn_count oracle > 0);
  (match Oracle.check oracle with
  | Oracle.Serializable -> ()
  | Oracle.Violation msg ->
      Alcotest.failf "%s seed %Ld: not serializable: %s" sys.System.name seed msg);
  fingerprint sys result oracle

let sweep ?crash ~mk ~load ~spec_of ~concurrency ~target seeds =
  let digests =
    List.map (run_once ?crash ~mk ~load ~spec_of ~concurrency ~target) seeds
  in
  (* Repeat the first seed: bit-identical digest required. *)
  let again =
    run_once ?crash ~mk ~load ~spec_of ~concurrency ~target (List.hd seeds)
  in
  Alcotest.(check string)
    (Printf.sprintf "seed %Ld reproduces bit-identically" (List.hd seeds))
    (List.hd digests) again;
  digests

let sb_spec sys = Smallbank.spec sb_params ~nodes:sys.System.cfg.Config.nodes

let test_xenic_smallbank_sweep () =
  let digests =
    sweep ~mk:(mk_sb System.Xenic) ~load:(Smallbank.load sb_params) ~spec_of:sb_spec
      ~concurrency:8 ~target:600
      [ 1L; 2L; 3L; 4L; 5L; 6L ]
  in
  (* Different seeds must actually exercise different schedules — if
     every digest were identical the seed would not be reaching the
     scheduler at all. *)
  Alcotest.(check bool) "seeds produce distinct runs" true
    (List.length (List.sort_uniq String.compare digests) > 1)

let test_xenic_tpcc_sweep () =
  ignore
    (sweep
       ~mk:
         (mk ~store_cfg:(Tpcc.store_cfg tpcc_params)
            ~buckets:(Tpcc.chained_buckets tpcc_params) ~cache_capacity:8192
            System.Xenic)
       ~load:(Tpcc.load tpcc_params)
       ~spec_of:(fun sys -> Tpcc.spec tpcc_params sys)
       ~concurrency:6 ~target:400
       [ 1L; 2L; 3L; 4L; 5L ])

let test_rdma_smallbank_sweep stack () =
  ignore
    (sweep ~mk:(mk_sb stack) ~load:(Smallbank.load sb_params)
       ~spec_of:sb_spec ~concurrency:8 ~target:400 [ 1L; 2L ])

(* Scale sweep: the oracle + bit-identity guarantees must hold at
   every cluster size the scale experiment sweeps, not just the
   paper's testbed — with one mid-run crash per sweep point exercising
   declaration, promotion and dead-owner sweeps at that fan-out, on
   stacks built armed like test_fault.ml's (request deadlines, the
   fenced commit point, a lease-based membership). Node
   1 is crashed 100us in: always a valid id, never the only replica
   (replication is 3). *)
let scale_nodes = [ 3; 12; 24 ]

let scale_crash = (100_000.0, 1)

let test_xenic_scale_sweep nodes () =
  let digests =
    sweep ~crash:scale_crash
      ~mk:(mk_sb ~nodes ~armed:true System.Xenic)
      ~load:(Smallbank.load sb_params) ~spec_of:sb_spec ~concurrency:4
      ~target:(50 * nodes)
      [ 1L; 2L ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d-node seeds produce distinct runs" nodes)
    true
    (List.length (List.sort_uniq String.compare digests) > 1)

let test_rdma_scale_sweep stack nodes () =
  ignore
    (sweep ~crash:scale_crash
       ~mk:(mk_sb ~nodes ~armed:true stack)
       ~load:(Smallbank.load sb_params) ~spec_of:sb_spec ~concurrency:4
       ~target:(50 * nodes)
       [ 1L ])

(* The oracle itself must reject a non-serializable history: two txns
   that each read the version the other overwrote (classic write
   skew on a single key cannot happen under versioned writes, so build
   a lost-update instead: both read version 0, both install 1). *)
let test_oracle_rejects_lost_update () =
  let k = Keyspace.make ~shard:0 ~table:0 ~ordered:false ~id:7 in
  let o = Oracle.create () in
  Oracle.record_commit o ~id:1
    ~reads:[ (k, 0, Oracle.Value (Some (Bytes.of_string "a"))) ]
    ~writes:[ (k, 1, Oracle.Put (Bytes.of_string "b")) ];
  Oracle.record_commit o ~id:2
    ~reads:[ (k, 0, Oracle.Value (Some (Bytes.of_string "a"))) ]
    ~writes:[ (k, 1, Oracle.Put (Bytes.of_string "c")) ];
  match Oracle.check o with
  | Oracle.Violation _ -> ()
  | Oracle.Serializable ->
      Alcotest.fail "duplicate version install accepted as serializable"

let test_oracle_rejects_stale_read () =
  let k = Keyspace.make ~shard:0 ~table:0 ~ordered:false ~id:9 in
  let o = Oracle.create () in
  Oracle.record_commit o ~id:1 ~reads:[]
    ~writes:[ (k, 1, Oracle.Put (Bytes.of_string "new")) ];
  (* Claims to have validated version 1 but observed the old value. *)
  Oracle.record_commit o ~id:2
    ~reads:[ (k, 1, Oracle.Value (Some (Bytes.of_string "old"))) ]
    ~writes:[];
  match Oracle.check o with
  | Oracle.Violation _ -> ()
  | Oracle.Serializable ->
      Alcotest.fail "stale read accepted as serializable"

let test_oracle_accepts_chain () =
  let k = Keyspace.make ~shard:0 ~table:0 ~ordered:false ~id:3 in
  let o = Oracle.create () in
  Oracle.record_commit o ~id:10 ~reads:[]
    ~writes:[ (k, 1, Oracle.Put (Bytes.of_string "x")) ];
  Oracle.record_commit o ~id:11
    ~reads:[ (k, 1, Oracle.Value (Some (Bytes.of_string "x"))) ]
    ~writes:[ (k, 2, Oracle.Put (Bytes.of_string "y")) ];
  Oracle.record_commit o ~id:12
    ~reads:[ (k, 2, Oracle.Value (Some (Bytes.of_string "y"))) ]
    ~writes:[ (k, 3, Oracle.Delete) ];
  Oracle.record_commit o ~id:13
    ~reads:[ (k, 3, Oracle.Value None) ]
    ~writes:[];
  match Oracle.check o with
  | Oracle.Serializable -> ()
  | Oracle.Violation msg -> Alcotest.failf "valid chain rejected: %s" msg

let () =
  Alcotest.run "xenic_determinism"
    [
      ( "oracle unit",
        [
          Alcotest.test_case "accepts wr/rw/ww chain" `Quick
            test_oracle_accepts_chain;
          Alcotest.test_case "rejects lost update" `Quick
            test_oracle_rejects_lost_update;
          Alcotest.test_case "rejects stale read" `Quick
            test_oracle_rejects_stale_read;
        ] );
      ( "seed sweep",
        [
          Alcotest.test_case "xenic smallbank (6 seeds)" `Quick
            test_xenic_smallbank_sweep;
          Alcotest.test_case "xenic tpcc (5 seeds)" `Quick
            test_xenic_tpcc_sweep;
          Alcotest.test_case "fasst smallbank" `Quick
            (test_rdma_smallbank_sweep System.Fasst);
          Alcotest.test_case "drtmr smallbank" `Quick
            (test_rdma_smallbank_sweep System.Drtmr);
        ] );
      ( "scale sweep (crash mid-run, replication 3)",
        List.concat_map
          (fun nodes ->
            [
              Alcotest.test_case
                (Printf.sprintf "xenic smallbank %d nodes" nodes)
                `Quick
                (test_xenic_scale_sweep nodes);
              Alcotest.test_case
                (Printf.sprintf "fasst smallbank %d nodes" nodes)
                `Quick
                (test_rdma_scale_sweep System.Fasst nodes);
            ])
          scale_nodes );
    ]
