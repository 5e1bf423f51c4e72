open Xenic_sim
open Xenic_cluster
open Xenic_proto
open Xenic_workload

type stack = Xenic | Drtmh | Drtmh_nc | Fasst | Drtmr | Farm

let all_stacks = [ Xenic; Drtmh; Drtmh_nc; Fasst; Drtmr; Farm ]

let stack_name = function
  | Xenic -> "xenic"
  | Drtmh -> "drtmh"
  | Drtmh_nc -> "drtmh-nc"
  | Fasst -> "fasst"
  | Drtmr -> "drtmr"
  | Farm -> "farm"

let stack_of_string s =
  List.find_opt (fun st -> String.equal (stack_name st) s) all_stacks

let flavor = function
  | Xenic -> invalid_arg "Harness.flavor: xenic is not an RDMA flavor"
  | Drtmh -> Rdma_system.Drtmh
  | Drtmh_nc -> Rdma_system.Drtmh_nc
  | Fasst -> Rdma_system.Fasst
  | Drtmr -> Rdma_system.Drtmr
  | Farm -> Rdma_system.Farm

type outcome = {
  committed : int;
  aborted : int;
  oracle_txns : int;
  digest : string;
  counters : (string * float) list;
}

let counter o name =
  match List.assoc_opt name o.counters with Some v -> v | None -> 0.0

let hw = Xenic_params.Hw.testbed

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

let mk_closed stack ~nodes ~replication ~armed () =
  let engine = Engine.create ~strict:true () in
  let cfg = Config.make ~nodes ~replication in
  match stack with
  | Xenic ->
      let segments, seg_size, d_max = Smallbank.store_cfg sb_params in
      let p =
        {
          Xenic_system.default_params with
          segments;
          seg_size;
          d_max;
          cache_capacity = 256;
          armed;
        }
      in
      System.of_xenic (Xenic_system.create engine hw cfg p)
  | _ ->
      let p =
        {
          Rdma_system.default_params with
          buckets = Smallbank.chained_buckets sb_params;
          armed;
        }
      in
      System.of_rdma (Rdma_system.create engine hw cfg (flavor stack) p)

let mk_open stack ?domains ~nodes ~replication () =
  let engine = Engine.create ~strict:true ?domains () in
  let cfg = Config.make ~nodes ~replication in
  match stack with
  | Xenic ->
      let segments, seg_size, d_max = Retwis.store_cfg retwis_params in
      let p =
        {
          Xenic_system.default_params with
          segments;
          seg_size;
          d_max;
          cache_capacity = 2 * retwis_params.Retwis.keys_per_node;
          partitions = 2;
        }
      in
      System.of_xenic (Xenic_system.create engine hw cfg p)
  | _ ->
      let p =
        {
          Rdma_system.default_params with
          buckets = Retwis.chained_buckets retwis_params;
          partitions = 2;
        }
      in
      System.of_rdma (Rdma_system.create engine hw cfg (flavor stack) p)

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
      (stack_name stack) seed
  in
  if Scenario.has_phases scn then begin
    let sys = mk_open stack ?domains ~nodes ~replication () in
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
    let armed = Scenario.has_crashes scn in
    let sys = mk_closed stack ~nodes ~replication ~armed () in
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
