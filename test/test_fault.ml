(* Mid-run fault injection.

   Every test here crashes a node at an arbitrary simulated instant in
   the middle of a driver run — not between load phases — with
   per-request timeouts armed and a lease-based membership attached, so
   declaration, epoch bump, dead-owner lock sweeps and promotion all
   happen while transactions are in flight.

   [Driver.run] returning at all is itself the liveness assertion:
   every in-flight transaction reached a terminal outcome (no request
   blocked forever on the dead node) and the run survived the strict
   engine's sanitizer plus the post-quiesce protocol audit (no leftover
   lock, no undrained log, no leaked sim primitive). On top of that we
   require the whole history to be serializable under [Oracle.check]
   and every seed to reproduce bit for bit. *)

open Xenic_sim
open Xenic_cluster
open Xenic_proto
open Xenic_workload

let hw = Xenic_params.Hw.testbed

let sb_params = { Smallbank.default_params with accounts_per_node = 500 }

let tpcc_params =
  {
    Tpcc.default_params with
    warehouses_per_node = 2;
    customers_per_district = 20;
    items = 200;
  }

(* Whole-transaction p99 in these runs is ~20us, so 40us per request
   sits well above the worst-case round trip: a firing timeout implies
   a dead peer. The lease is shorter than the timeout so promotion
   lands while coordinators are still backing off. *)
let req_timeout_ns = 40_000.0

let lease_ns = 25_000.0

let mk_xenic ~store_cfg ~cache_capacity () =
  let engine = Engine.create ~strict:true () in
  let cfg = Config.make ~nodes:4 ~replication:3 in
  let segments, seg_size, d_max = store_cfg in
  let p =
    {
      Xenic_system.default_params with
      segments;
      seg_size;
      d_max;
      cache_capacity;
      req_timeout_ns = Some req_timeout_ns;
    }
  in
  let xs = Xenic_system.create engine hw cfg p in
  let m = Membership.create engine cfg ~lease_ns in
  Xenic_system.attach_membership xs m;
  Membership.start m;
  System.of_xenic xs

let mk_rdma flavor () =
  let engine = Engine.create ~strict:true () in
  let cfg = Config.make ~nodes:4 ~replication:3 in
  let p =
    {
      Rdma_system.default_params with
      buckets = Smallbank.chained_buckets sb_params;
      req_timeout_ns = Some req_timeout_ns;
    }
  in
  let rs = Rdma_system.create engine hw cfg flavor p in
  let m = Membership.create engine cfg ~lease_ns in
  Rdma_system.attach_membership rs m;
  Membership.start m;
  System.of_rdma rs

let counter sys name =
  match
    List.assoc_opt name
      (Xenic_stats.Counter.to_list (Metrics.counters (sys.System.metrics ())))
  with
  | Some v -> v
  | None -> 0.0

(* Same lossless digest as the determinism sweep: %h floats, every
   perf counter. Equal digests mean bit-identical runs. *)
let fingerprint sys (result : Driver.result) oracle =
  let counters =
    Xenic_stats.Counter.to_list (Metrics.counters (sys.System.metrics ()))
  in
  String.concat "\n"
    (Printf.sprintf "committed=%d aborted=%d oracle_txns=%d"
       result.Driver.committed result.Driver.aborted (Oracle.txn_count oracle)
    :: Printf.sprintf "median=%h p99=%h abort_rate=%h duration=%h"
         result.Driver.median_latency_us result.Driver.p99_latency_us
         result.Driver.abort_rate result.Driver.duration_ns
    :: List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) counters)

let run_once ~mk ~load ~spec_of ~concurrency ~target ~faults seed =
  let sys = mk () in
  let oracle = Oracle.create () in
  sys.System.set_oracle oracle;
  load sys;
  let spec = spec_of sys in
  let result = Driver.run sys spec ~seed ~concurrency ~target ~faults in
  let name = sys.System.name in
  Alcotest.(check bool)
    (Printf.sprintf "%s seed %Ld: made progress" name seed)
    true
    (result.Driver.committed > 0);
  List.iter
    (fun (_, node) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %Ld: node %d removed" name seed node)
        false
        (Control.node_alive sys.System.control ~node))
    faults;
  Alcotest.(check bool)
    (Printf.sprintf "%s seed %Ld: crash recorded" name seed)
    true
    (counter sys "node_crashes" >= 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "%s seed %Ld: membership-driven promotion ran" name seed)
    true
    (counter sys "recovery_promotions" >= 1.0);
  (match Oracle.check oracle with
  | Oracle.Serializable -> ()
  | Oracle.Violation msg ->
      Alcotest.failf "%s seed %Ld: not serializable: %s" name seed msg);
  fingerprint sys result oracle

let sweep ~mk ~load ~spec_of ~concurrency ~target ~faults seeds =
  let digests =
    List.map (run_once ~mk ~load ~spec_of ~concurrency ~target ~faults) seeds
  in
  let again =
    run_once ~mk ~load ~spec_of ~concurrency ~target ~faults (List.hd seeds)
  in
  Alcotest.(check string)
    (Printf.sprintf "seed %Ld reproduces bit-identically under faults"
       (List.hd seeds))
    (List.hd digests) again;
  digests

let sb_spec sys = Smallbank.spec sb_params ~nodes:sys.System.cfg.Config.nodes

let test_xenic_smallbank_fault () =
  let digests =
    sweep
      ~mk:(mk_xenic ~store_cfg:(Smallbank.store_cfg sb_params)
             ~cache_capacity:256)
      ~load:(Smallbank.load sb_params) ~spec_of:sb_spec ~concurrency:8
      ~target:600
      ~faults:[ (100_000.0, 2) ]
      [ 1L; 2L; 3L ]
  in
  Alcotest.(check bool) "seeds produce distinct faulty runs" true
    (List.length (List.sort_uniq String.compare digests) > 1)

let test_xenic_tpcc_fault () =
  ignore
    (sweep
       ~mk:(mk_xenic ~store_cfg:(Tpcc.store_cfg tpcc_params)
              ~cache_capacity:8192)
       ~load:(Tpcc.load tpcc_params)
       ~spec_of:(fun sys -> Tpcc.spec tpcc_params sys)
       ~concurrency:6 ~target:400
       ~faults:[ (150_000.0, 1) ]
       [ 1L; 2L ])

let test_rdma_fault flavor () =
  ignore
    (sweep ~mk:(mk_rdma flavor) ~load:(Smallbank.load sb_params)
       ~spec_of:sb_spec ~concurrency:8 ~target:400
       ~faults:[ (80_000.0, 2) ]
       [ 1L; 2L ])

(* {2 Driver measurement-window fixes (no faults involved)} *)

let mk_plain () =
  let engine = Engine.create ~strict:true () in
  let cfg = Config.make ~nodes:4 ~replication:3 in
  let segments, seg_size, d_max = Smallbank.store_cfg sb_params in
  let p =
    {
      Xenic_system.default_params with
      segments;
      seg_size;
      d_max;
      cache_capacity = 256;
    }
  in
  System.of_xenic (Xenic_system.create engine hw cfg p)

(* warmup >= every commit the run makes (warmup_frac 2.0 outruns even
   the closed loop's in-flight overshoot past [target]): the
   measurement window never opens. The result must say so explicitly —
   zero throughput over a zero-length window — instead of the old
   behavior of dividing by a fabricated 1ns. *)
let test_driver_empty_window () =
  let sys = mk_plain () in
  Smallbank.load sb_params sys;
  let result =
    Driver.run ~warmup_frac:2.0 sys (sb_spec sys) ~concurrency:4 ~target:50
  in
  Alcotest.(check int) "no commit counted in window" 0 result.Driver.committed;
  Alcotest.(check bool) "zero throughput" true
    (Float.equal result.Driver.tput_per_server 0.0);
  Alcotest.(check bool) "zero-length window" true
    (Float.equal result.Driver.duration_ns 0.0)

let test_driver_negative_fault_time () =
  let sys = mk_plain () in
  Smallbank.load sb_params sys;
  Alcotest.check_raises "negative fault time rejected"
    (Invalid_argument "Driver.run: negative fault time") (fun () ->
      ignore
        (Driver.run sys (sb_spec sys) ~concurrency:4 ~target:50
           ~faults:[ (-1.0, 0) ]))

let () =
  Alcotest.run "xenic_fault"
    [
      ( "mid-run crash",
        [
          Alcotest.test_case "xenic smallbank (3 seeds)" `Quick
            test_xenic_smallbank_fault;
          Alcotest.test_case "xenic tpcc (2 seeds)" `Quick
            test_xenic_tpcc_fault;
          Alcotest.test_case "fasst smallbank" `Quick
            (test_rdma_fault Rdma_system.Fasst);
          Alcotest.test_case "drtmr smallbank" `Quick
            (test_rdma_fault Rdma_system.Drtmr);
        ] );
      ( "driver window",
        [
          Alcotest.test_case "empty measurement window" `Quick
            test_driver_empty_window;
          Alcotest.test_case "negative fault time" `Quick
            test_driver_negative_fault_time;
        ] );
    ]
