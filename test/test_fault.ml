(* Mid-run fault injection.

   Every test here crashes a node at an arbitrary simulated instant in
   the middle of a driver run — not between load phases — on an armed
   stack (request deadlines, the fenced commit point and a lease-based
   membership), so declaration, epoch bump, dead-owner lock sweeps and promotion all
   happen while transactions are in flight.

   [Driver.run] returning at all is itself the liveness assertion:
   every in-flight transaction reached a terminal outcome (no request
   blocked forever on the dead node) and the run survived the strict
   engine's sanitizer plus the post-quiesce protocol audit (no leftover
   lock, no undrained log, no leaked sim primitive). On top of that we
   require the whole history to be serializable under [Oracle.check]
   and every seed to reproduce bit for bit. *)

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

(* A stack on a strict engine, armed unless [armed = false]. *)
let mk ?(armed = true) ~store_cfg ~buckets ~cache_capacity stack () =
  System.create ~strict:true ~armed ~nodes:4 ~replication:3
    ~xenic:{ Xenic_system.default_params with cache_capacity }
    ~store_cfg ~buckets stack

let mk_smallbank =
  mk ~store_cfg:(Smallbank.store_cfg sb_params)
    ~buckets:(Smallbank.chained_buckets sb_params) ~cache_capacity:256

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

(* Crash [node] [at_ns] into the run, injected as a one-event
   scenario. *)
let inject_crash sys (at_ns, node) =
  Xenic_scenario.Scenario.(
    inject
      (make ~name:"crash" ~nodes:sys.System.cfg.Config.nodes
         [ { at_ns; action = Crash node } ])
      sys ~seed:0L)

let run_once ~mk ~load ~spec_of ~concurrency ~target ~crash seed =
  let sys = mk () in
  let oracle = Oracle.create () in
  sys.System.set_oracle oracle;
  load sys;
  let spec = spec_of sys in
  inject_crash sys crash;
  let result = Driver.run sys spec ~seed ~concurrency ~target in
  let name = sys.System.name in
  Alcotest.(check bool)
    (Printf.sprintf "%s seed %Ld: made progress" name seed)
    true
    (result.Driver.committed > 0);
  let node = snd crash in
  Alcotest.(check bool)
    (Printf.sprintf "%s seed %Ld: node %d removed" name seed node)
    false
    (Control.node_alive sys.System.control ~node);
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

let sweep ~mk ~load ~spec_of ~concurrency ~target ~crash seeds =
  let digests =
    List.map (run_once ~mk ~load ~spec_of ~concurrency ~target ~crash) seeds
  in
  let again =
    run_once ~mk ~load ~spec_of ~concurrency ~target ~crash (List.hd seeds)
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
      ~mk:(mk_smallbank System.Xenic)
      ~load:(Smallbank.load sb_params) ~spec_of:sb_spec ~concurrency:8
      ~target:600
      ~crash:(100_000.0, 2)
      [ 1L; 2L; 3L ]
  in
  Alcotest.(check bool) "seeds produce distinct faulty runs" true
    (List.length (List.sort_uniq String.compare digests) > 1)

let test_xenic_tpcc_fault () =
  ignore
    (sweep
       ~mk:
         (mk ~store_cfg:(Tpcc.store_cfg tpcc_params)
            ~buckets:(Tpcc.chained_buckets tpcc_params) ~cache_capacity:8192
            System.Xenic)
       ~load:(Tpcc.load tpcc_params)
       ~spec_of:(fun sys -> Tpcc.spec tpcc_params sys)
       ~concurrency:6 ~target:400
       ~crash:(150_000.0, 1)
       [ 1L; 2L ])

let test_rdma_fault stack () =
  ignore
    (sweep ~mk:(mk_smallbank stack) ~load:(Smallbank.load sb_params)
       ~spec_of:sb_spec ~concurrency:8 ~target:400
       ~crash:(80_000.0, 2)
       [ 1L; 2L ])

(* {2 Driver measurement-window fixes (no faults involved)} *)

(* warmup >= every commit the run makes (warmup_frac 2.0 outruns even
   the closed loop's in-flight overshoot past [target]): the
   measurement window never opens. The result must say so explicitly —
   zero throughput over a zero-length window — instead of the old
   behavior of dividing by a fabricated 1ns. *)
let test_driver_empty_window () =
  let sys = mk_smallbank ~armed:false System.Xenic () in
  Smallbank.load sb_params sys;
  let result =
    Driver.run ~warmup_frac:2.0 sys (sb_spec sys) ~concurrency:4 ~target:50
  in
  Alcotest.(check int) "no commit counted in window" 0 result.Driver.committed;
  Alcotest.(check bool) "zero throughput" true
    (Float.equal result.Driver.tput_per_server 0.0);
  Alcotest.(check bool) "zero-length window" true
    (Float.equal result.Driver.duration_ns 0.0)

(* A crash scheduled before the run starts is refused by the injection
   path itself, before any event is scheduled. *)
let test_driver_negative_fault_time () =
  let sys = mk_smallbank ~armed:false System.Xenic () in
  Smallbank.load sb_params sys;
  Alcotest.check_raises "negative fault time rejected"
    (Invalid_argument "scenario crash: event time -1: must be >= 0")
    (fun () -> inject_crash sys (-1.0, 0))

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
            (test_rdma_fault System.Fasst);
          Alcotest.test_case "drtmr smallbank" `Quick
            (test_rdma_fault System.Drtmr);
        ] );
      ( "driver window",
        [
          Alcotest.test_case "empty measurement window" `Quick
            test_driver_empty_window;
          Alcotest.test_case "negative fault time" `Quick
            test_driver_negative_fault_time;
        ] );
    ]
