(* Scale-out sweep: nodes x replication across all six stacks.

   The paper's evaluation is pinned to its 6-server / 3-way-replicated
   testbed; this experiment sweeps nodes in {3, 6, 12, 24} and
   replication in {1, 2, 3} on Smallbank and records per-node
   throughput, the abort-reason taxonomy, and per-phase latency
   breakdowns for every grid point. Every simulated number is
   deterministic: a same-seed rerun of one grid point per stack is
   digest-checked here, and run_bench.sh gates the emitted
   BENCH_scale.json byte-for-byte against a checked-in reference
   (wall-clock keys excluded).

   The engine hot-path events/sec ("bench sim") is re-measured and
   recorded here too, so the scale artifact carries the simulator speed
   the sweep ran at. *)

open Xenic_proto
open Xenic_workload

let nodes_grid = [ 3; 6; 12; 24 ]

let replication_grid = [ 1; 2; 3 ]

let seed = 11L

let sb_params () =
  { Smallbank.default_params with accounts_per_node = Common.scale 4_000 }

let systems ~nodes ~replication () =
  let p = sb_params () in
  Common.systems ~nodes ~replication
    ~xenic:
      {
        Xenic_system.default_params with
        cache_capacity = 2 * p.Smallbank.accounts_per_node;
      }
    ~store_cfg:(Smallbank.store_cfg p)
    ~buckets:(Smallbank.chained_buckets p) ()

let stack_names = List.map Common.label System.stacks

type cell = {
  tput : float;  (* committed txn/s per node *)
  median_us : float;
  p99_us : float;
  abort_rate : float;
  digest : string;  (* lossless fingerprint for same-seed rerun checks *)
}

(* %h floats make equal digests mean bit-identical results. *)
let fingerprint sys (r : Driver.result) =
  Printf.sprintf "c=%d a=%d ev=%d now=%h tput=%h med=%h p99=%h dur=%h"
    r.Driver.committed r.Driver.aborted
    (Xenic_sim.Engine.events_run sys.System.engine)
    (Xenic_sim.Engine.now sys.System.engine)
    r.Driver.tput_per_server r.Driver.median_latency_us r.Driver.p99_latency_us
    r.Driver.duration_ns

let run_point ~nodes mk =
  let p = sb_params () in
  let sys = mk () in
  Smallbank.load p sys;
  let result =
    Driver.run sys (Smallbank.spec p ~nodes) ~seed ~concurrency:4
      ~target:(Common.scale (300 * nodes))
  in
  (sys, result)

let key ~name ~nodes ~replication suffix =
  Printf.sprintf "%s n%d r%d %s" name nodes replication suffix

let record_cell ~name ~nodes ~replication (sys, (result : Driver.result)) =
  let k = key ~name ~nodes ~replication in
  Common.json_num (k "tput/server") result.Driver.tput_per_server;
  Common.json_num (k "median_us") result.Driver.median_latency_us;
  Common.json_num (k "p99_us") result.Driver.p99_latency_us;
  Common.json_num (k "abort_rate") result.Driver.abort_rate;
  let m = sys.System.metrics () in
  List.iter
    (fun (reason, n) ->
      if n > 0 then Common.json_int (k ("aborts " ^ reason)) n)
    (Metrics.abort_reason_counts m);
  List.iter
    (fun (phase, h) ->
      Common.json_num
        (k ("phase " ^ phase ^ " mean_us"))
        (Xenic_stats.Histogram.mean h /. 1e3))
    (Metrics.phase_stats m);
  {
    tput = result.Driver.tput_per_server;
    median_us = result.Driver.median_latency_us;
    p99_us = result.Driver.p99_latency_us;
    abort_rate = result.Driver.abort_rate;
    digest = fingerprint sys result;
  }

(* Grid point used for the same-seed rerun check (mid-grid: big enough
   to exercise multihop replication, small enough to rerun cheaply). *)
let rerun_nodes = 12

let rerun_replication = 3

let run () =
  Common.section
    "Scale: nodes x replication sweep, Smallbank, all stacks (fixed seed)";
  (* One table per stack: rows = nodes, columns = replication. *)
  let cells = Hashtbl.create 64 in
  List.iter
    (fun nodes ->
      List.iter
        (fun replication ->
          List.iter
            (fun (name, mk) ->
              let cell =
                record_cell ~name ~nodes ~replication (run_point ~nodes mk)
              in
              Hashtbl.replace cells (name, nodes, replication) cell)
            (systems ~nodes ~replication ()))
        replication_grid)
    nodes_grid;
  let cell name nodes replication = Hashtbl.find cells (name, nodes, replication) in
  List.iter
    (fun name ->
      Printf.printf "\n  %s: txn/s per node (rows: nodes; cols: replication)\n"
        name;
      Printf.printf "    %6s %12s %12s %12s\n" "nodes" "r=1" "r=2" "r=3";
      List.iter
        (fun nodes ->
          Printf.printf "    %6d %12.0f %12.0f %12.0f\n" nodes
            (cell name nodes 1).tput (cell name nodes 2).tput
            (cell name nodes 3).tput)
        nodes_grid)
    stack_names;
  (* Same-seed rerun: one grid point per stack must be bit-identical on
     a second run. No JSON keys: a divergence aborts the experiment, so
     the checked-in BENCH_scale.json reference is unaffected. *)
  Printf.printf "\n    %-10s %8s\n" "stack" "rerun";
  List.iter
    (fun (name, mk) ->
      let sys, result = run_point ~nodes:rerun_nodes mk in
      let again = fingerprint sys result in
      let first = (cell name rerun_nodes rerun_replication).digest in
      if not (String.equal first again) then
        failwith
          (Printf.sprintf
             "scale: %s n%d r%d same-seed rerun diverged:\n  %s\n  %s" name
             rerun_nodes rerun_replication first again);
      Printf.printf "    %-10s %8s\n" name "ok")
    (systems ~nodes:rerun_nodes ~replication:rerun_replication ());
  Common.note "same-seed rerun at n%d r%d: bit-identical for all %d stacks"
    rerun_nodes rerun_replication (List.length stack_names);
  (* Scale-out health: per-node throughput at 24 nodes must stay within
     2x of the 6-node value (no pathological collapse as fan-out grows). *)
  let x6 = (cell "Xenic" 6 3).tput and x24 = (cell "Xenic" 24 3).tput in
  let ratio = if Float.compare x24 0.0 > 0 then x6 /. x24 else infinity in
  Common.json_num "xenic per-node tput 6v24 ratio (r3)" ratio;
  Common.note
    "Xenic per-node tput r=3: %.0f at 6 nodes vs %.0f at 24 nodes (%.2fx, %s)"
    x6 x24 ratio
    (if Float.compare ratio 2.0 <= 0 && Float.compare ratio 0.5 >= 0 then
       "within 2x"
     else "OUTSIDE 2x");
  (* Engine hot-path events/sec, measured (wall clock; excluded from
     the byte-identity gate via the "wallclock" key prefix). *)
  let m = Exp_sim.measure () in
  Common.json_int "sim storm events" m.Exp_sim.events;
  Common.json_num "wallclock sim events/sec" m.Exp_sim.current_eps;
  Common.note "engine hot path: %.2e events/sec" m.Exp_sim.current_eps
