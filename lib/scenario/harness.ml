open Xenic_sim
open Xenic_proto
open Xenic_workload

type outcome = {
  committed : int;
  aborted : int;
  oracle_txns : int;
  digest : string;
  counters : (string * float) list;
}

let counter o name =
  match List.assoc_opt name o.counters with Some v -> v | None -> 0.0

let sb_params = { Smallbank.default_params with accounts_per_node = 500 }

let retwis_params = { Retwis.default_params with keys_per_node = 1_000 }

(* The injection seed is decorrelated from the driver seed: both roots
   are SplitMix64 streams, and seeding them identically would make the
   fabric's retransmit draws echo the driver's arrival draws. *)
let inject_seed seed = Int64.logxor seed 0x9e3779b97f4a7c15L

let sys_counters sys =
  Xenic_stats.Counter.to_list (Metrics.counters (sys.System.metrics ()))

let check_oracle ~what oracle =
  match Oracle.check oracle with
  | Oracle.Serializable -> ()
  | Oracle.Violation msg ->
      failwith (Printf.sprintf "%s: not serializable: %s" what msg)

let closed_digest sys (result : Driver.result) oracle =
  let counters = sys_counters sys in
  String.concat "\n"
    (Printf.sprintf "committed=%d aborted=%d oracle_txns=%d"
       result.Driver.committed result.Driver.aborted (Oracle.txn_count oracle)
    :: Printf.sprintf "median=%h p99=%h abort_rate=%h duration=%h"
         result.Driver.median_latency_us result.Driver.p99_latency_us
         result.Driver.abort_rate result.Driver.duration_ns
    :: List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) counters)

let open_digest sys (r : Openloop.result) oracle =
  let counters = sys_counters sys in
  String.concat "\n"
    (Printf.sprintf
       "offered=%d admitted=%d committed=%d aborted=%d retried=%d shed=%d \
        oracle_txns=%d"
       r.Openloop.offered r.Openloop.admitted r.Openloop.committed
       r.Openloop.aborted r.Openloop.retried r.Openloop.shed_total
       (Oracle.txn_count oracle)
    :: Printf.sprintf "now=%h goodput=%h median=%h p99=%h"
         (Engine.now sys.System.engine)
         r.Openloop.goodput_tps r.Openloop.median_latency_us
         r.Openloop.p99_latency_us
    :: List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) counters)

let open_admission =
  { Admission.capacity = 64; backpressure = 8.0; deadline_ns = 500_000.0 }

let run ?domains ?(concurrency = 8) ?(target = 300) ~stack ~seed scn =
  Scenario.validate_exn scn;
  let nodes = scn.Scenario.nodes in
  let replication = min 3 nodes in
  if Scenario.max_concurrent_crashes scn >= replication then
    invalid_arg
      (Printf.sprintf
         "Harness.run %s: %d concurrent crashes >= replication %d"
         scn.Scenario.name
         (Scenario.max_concurrent_crashes scn)
         replication);
  let what = Printf.sprintf "%s/%s seed %Ld" scn.Scenario.name
      (System.stack_name stack) seed
  in
  if Scenario.has_phases scn then begin
    let sys =
      System.create ~strict:true ?domains ~nodes ~replication
        ~xenic:
          {
            Xenic_system.default_params with
            cache_capacity = 2 * retwis_params.Retwis.keys_per_node;
          }
        ~partitions:2
        ~store_cfg:(Retwis.store_cfg retwis_params)
        ~buckets:(Retwis.chained_buckets retwis_params)
        stack
    in
    let oracle = Oracle.create () in
    sys.System.set_oracle oracle;
    Retwis.load retwis_params sys;
    Scenario.inject scn sys ~seed:(inject_seed seed);
    let r =
      Openloop.run ~seed ~admission:open_admission ~service_slots:4
        ~users:10_000 sys
        (Retwis.openloop_spec retwis_params)
        ~phases:(Scenario.openloop_phases scn)
    in
    check_oracle ~what oracle;
    {
      committed = r.Openloop.committed;
      aborted = r.Openloop.aborted;
      oracle_txns = Oracle.txn_count oracle;
      digest = open_digest sys r oracle;
      counters = sys_counters sys;
    }
  end
  else begin
    let sys =
      System.create ~strict:true ~nodes ~replication
        ~xenic:{ Xenic_system.default_params with cache_capacity = 256 }
        ~armed:(Scenario.has_crashes scn)
        ~store_cfg:(Smallbank.store_cfg sb_params)
        ~buckets:(Smallbank.chained_buckets sb_params)
        stack
    in
    let oracle = Oracle.create () in
    sys.System.set_oracle oracle;
    Smallbank.load sb_params sys;
    Scenario.inject scn sys ~seed:(inject_seed seed);
    let r =
      Driver.run sys (Smallbank.spec sb_params ~nodes) ~seed ~concurrency
        ~target
    in
    check_oracle ~what oracle;
    {
      committed = r.Driver.committed;
      aborted = r.Driver.aborted;
      oracle_txns = Oracle.txn_count oracle;
      digest = closed_digest sys r oracle;
      counters = sys_counters sys;
    }
  end
