(* xenicctl: run a transaction benchmark on any of the six systems
   with custom cluster/load parameters, optionally writing its trace,
   profile and telemetry.

     dune exec bin/xenicctl.exe -- run --system xenic --workload smallbank \
       --nodes 6 --concurrency 16 --target 20000 --trace trace.json *)

open Cmdliner
open Xenic_cluster
open Xenic_proto
open Xenic_workload

module Harness = Xenic_scenario.Harness

let system_conv =
  Arg.enum (List.map (fun s -> (System.stack_name s, s)) System.stacks)

let system_doc what =
  Printf.sprintf "%s to run: %s." what
    (String.concat ", " (List.map System.stack_name System.stacks))

type workload_kind = Smallbank | Retwis | Tpcc | Tpcc_no

let workload_conv =
  Arg.enum
    [
      ("smallbank", Smallbank);
      ("retwis", Retwis);
      ("tpcc", Tpcc);
      ("tpcc-neworder", Tpcc_no);
    ]

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* The [run] subcommand. [trace_out] attaches an execution trace and
   writes it as Chrome trace JSON; [profile_out] enables time
   attribution and writes the bottleneck report plus the
   collapsed-stack flamegraph; [telemetry_out] attaches the windowed
   flight recorder and writes the series as BENCH-style JSON and
   OpenMetrics text. *)
let run_cmd trace_out profile_out telemetry_out telemetry_window_us
    slo_latency_us slo_target system workload nodes replication concurrency
    target scale seed =
  let sb = { Smallbank.default_params with accounts_per_node = scale } in
  let rw = { Retwis.default_params with keys_per_node = scale } in
  let tp =
    {
      Tpcc.default_params with
      warehouses_per_node = max 2 (scale / 2_500);
      customers_per_district = 30;
      items = max 200 (scale / 20);
    }
  in
  let store_cfg, buckets, cache, load, spec =
    match workload with
    | Smallbank ->
        ( Smallbank.store_cfg sb,
          Smallbank.chained_buckets sb,
          2 * sb.Smallbank.accounts_per_node,
          Smallbank.load sb,
          fun sys ->
            Smallbank.spec sb ~nodes:sys.System.cfg.Config.nodes )
    | Retwis ->
        ( Retwis.store_cfg rw,
          Retwis.chained_buckets rw,
          rw.Retwis.keys_per_node,
          Retwis.load rw,
          fun sys -> Retwis.spec rw ~nodes:sys.System.cfg.Config.nodes )
    | Tpcc ->
        ( Tpcc.store_cfg tp,
          Tpcc.chained_buckets tp,
          Tpcc.hash_keys_per_shard tp,
          Tpcc.load tp,
          fun sys -> Tpcc.spec tp sys )
    | Tpcc_no ->
        let tp = { tp with Tpcc.uniform_item_partitions = true } in
        ( Tpcc.store_cfg tp,
          Tpcc.chained_buckets tp,
          Tpcc.hash_keys_per_shard tp,
          Tpcc.load tp,
          fun sys -> Tpcc.new_order_spec tp sys )
  in
  let sys =
    System.create ~nodes ~replication
      ~xenic:
        {
          Xenic_system.default_params with
          cache_capacity = cache;
          app_threads = 8;
          worker_threads = 8;
        }
      ~store_cfg ~buckets system
  in
  let wl_name =
    match workload with
    | Smallbank -> "smallbank"
    | Retwis -> "retwis"
    | Tpcc -> "tpcc"
    | Tpcc_no -> "tpcc-neworder"
  in
  Printf.printf "loading %s on %s (%d nodes, rf=%d)...\n%!" wl_name
    sys.System.name nodes replication;
  load sys;
  let trace =
    match trace_out with
    | None -> None
    | Some _ -> Some (Xenic_sim.Trace.create sys.System.engine)
  in
  let telemetry =
    match telemetry_out with
    | None -> None
    | Some _ ->
        Some
          (Xenic_telemetry.Telemetry.create
             ~window_ns:(telemetry_window_us *. 1e3)
             sys.System.engine)
  in
  let profile = profile_out <> None in
  let result =
    Driver.run ~seed:(Int64.of_int seed) ?trace ?telemetry ~profile sys
      (spec sys) ~concurrency ~target
  in
  Printf.printf
    "%s: %.0f txn/s/server, median %.1fus, p99 %.1fus, abort rate %.1f%%\n"
    sys.System.name result.Driver.tput_per_server
    result.Driver.median_latency_us result.Driver.p99_latency_us
    (100.0 *. result.Driver.abort_rate);
  List.iter
    (fun (k, v) -> Printf.printf "  %-24s %.0f\n" k v)
    (Xenic_stats.Counter.to_list (Metrics.counters (sys.System.metrics ())));
  (match (telemetry_out, telemetry) with
  | Some base, Some tel ->
      let open Xenic_telemetry in
      let roll = Telemetry.rollup tel in
      let t =
        Xenic_stats.Table.create ~title:"Telemetry windows"
          ~columns:
            [
              "win"; "start us"; "offered"; "admitted"; "committed";
              "aborted"; "shed"; "q mean"; "p50 us"; "p99 us";
            ]
      in
      Array.iter
        (fun (a : Telemetry.agg) ->
          Xenic_stats.Table.add_row t
            [
              string_of_int a.Telemetry.a_win;
              Xenic_stats.Table.cellf ~decimals:0
                (a.Telemetry.a_start_ns /. 1e3);
              string_of_int a.Telemetry.a_offered;
              string_of_int a.Telemetry.a_admitted;
              string_of_int a.Telemetry.a_committed;
              string_of_int a.Telemetry.a_aborted;
              string_of_int a.Telemetry.a_shed;
              Xenic_stats.Table.cellf ~decimals:1 a.Telemetry.a_q_mean;
              Xenic_stats.Table.cellf ~decimals:1
                (Xenic_stats.Histogram.median a.Telemetry.a_lat /. 1e3);
              Xenic_stats.Table.cellf ~decimals:1
                (Xenic_stats.Histogram.p99 a.Telemetry.a_lat /. 1e3);
            ])
        roll;
      Xenic_stats.Table.print t;
      let slo =
        { Detect.latency_ns = slo_latency_us *. 1e3; target = slo_target }
      in
      List.iter
        (fun (dname, (v : Detect.verdict)) ->
          Printf.printf "  detect %-12s %s (%s)\n" dname
            (if v.Detect.flagged then "FLAGGED" else "clean")
            v.Detect.detail)
        (Detect.all slo roll);
      write_file (base ^ ".json")
        (Telemetry.to_json tel ~id:"telemetry"
           ~description:(sys.System.name ^ " " ^ wl_name));
      let om = Telemetry.to_openmetrics tel in
      (match Telemetry.validate_openmetrics om with
      | Ok () -> ()
      | Error e -> failwith ("telemetry: invalid OpenMetrics output: " ^ e));
      write_file (base ^ ".prom") om;
      Printf.printf
        "wrote telemetry series to %s.json, OpenMetrics to %s.prom\n" base
        base
  | _ -> ());
  (match (profile_out, result.Driver.profile) with
  | Some base, Some prof ->
      let report = Xenic_profile.Profile.report prof in
      let folded = Xenic_profile.Profile.folded prof in
      let write = write_file in
      write (base ^ ".txt") report;
      write (base ^ ".folded") folded;
      print_string report;
      Printf.printf "wrote bottleneck report to %s.txt, flamegraph to %s.folded\n"
        base base
  | _ -> ());
  match (trace_out, trace) with
  | Some path, Some tr ->
      Xenic_sim.Trace.write_chrome_json tr path;
      Printf.printf "wrote %d trace events (%d dropped) to %s\n"
        (Xenic_sim.Trace.count tr)
        (Xenic_sim.Trace.dropped tr)
        path;
      if Xenic_sim.Trace.dropped tr > 0 then
        Printf.printf
          "WARNING: %d trace events were dropped at the buffer limit; the \
           trace is truncated and not comparable across runs. Lower the \
           target or raise the trace limit.\n"
          (Xenic_sim.Trace.dropped tr);
      let m = sys.System.metrics () in
      let t =
        Xenic_stats.Table.create ~title:"Per-phase latency breakdown"
          ~columns:[ "phase"; "count"; "mean us"; "med us"; "p99 us" ]
      in
      List.iter
        (fun (phase, h) ->
          Xenic_stats.Table.add_row t
            [
              phase;
              string_of_int (Xenic_stats.Histogram.count h);
              Xenic_stats.Table.cellf ~decimals:2
                (Xenic_stats.Histogram.mean h /. 1_000.0);
              Xenic_stats.Table.cellf ~decimals:2
                (Xenic_stats.Histogram.median h /. 1_000.0);
              Xenic_stats.Table.cellf ~decimals:2
                (Xenic_stats.Histogram.p99 h /. 1_000.0);
            ])
        (Metrics.phase_stats m);
      Xenic_stats.Table.print t;
      let ar =
        Xenic_stats.Table.create ~title:"Aborts by reason"
          ~columns:[ "reason"; "count" ]
      in
      List.iter
        (fun (reason, n) ->
          Xenic_stats.Table.add_row ar [ reason; string_of_int n ])
        (Metrics.abort_reason_counts m);
      Xenic_stats.Table.print ar
  | _ -> ()

(* [bench diff]: compare two BENCH_*.json metric files with a relative
   tolerance; exit nonzero when any metric is out of tolerance. *)
let bench_diff_cmd a b tol ignore_prefixes =
  match
    ( Xenic_profile.Bench_diff.load_metrics a,
      Xenic_profile.Bench_diff.load_metrics b )
  with
  | exception Failure e ->
      Printf.eprintf "bench diff: %s\n" e;
      exit 2
  | ma, mb ->
      let findings =
        Xenic_profile.Bench_diff.diff ~ignore_prefixes ~tol ma mb
      in
      Printf.printf "bench diff: %s (reference) vs %s (candidate)\n" a b;
      print_string (Xenic_profile.Bench_diff.render ~tol findings);
      if Xenic_profile.Bench_diff.regressed findings then exit 1

(* [scenario run]: load a declarative scenario file, validate it and
   drive it on the chosen stack under the scenario harness (strict
   engine + serializability oracle), then print the outcome. *)
let scenario_run_cmd file stack seed target concurrency verbose =
  let module Scenario = Xenic_scenario.Scenario in
  match Scenario.load_file file with
  | Error msg ->
      Printf.eprintf "scenario run: %s: %s\n" file msg;
      exit 2
  | Ok scn -> (
      Printf.printf "scenario %s: %d nodes, %d events, %d phases (%s)\n"
        scn.Scenario.name scn.Scenario.nodes
        (List.length scn.Scenario.events)
        (List.length scn.Scenario.phases)
        (if Scenario.has_phases scn then "open-loop Retwis"
         else "closed-loop Smallbank");
      match
        Harness.run ~stack ~seed:(Int64.of_int seed) ~target ~concurrency scn
      with
      | exception Failure msg ->
          Printf.eprintf "scenario run: %s\n" msg;
          exit 1
      | exception Invalid_argument msg ->
          Printf.eprintf "scenario run: invalid scenario: %s\n" msg;
          exit 2
      | o ->
          Printf.printf
            "stack %s seed %d: committed=%d aborted=%d oracle_txns=%d \
             (serializable)\n"
            (System.stack_name stack) seed o.Harness.committed
            o.Harness.aborted o.Harness.oracle_txns;
          List.iter
            (fun (k, v) ->
              if Float.compare v 0.0 <> 0 then
                Printf.printf "  %-32s %.6g\n" k v)
            (List.sort compare o.Harness.counters);
          if verbose then Printf.printf "digest %s\n" o.Harness.digest)

let cmd =
  let system =
    Arg.(value & opt system_conv System.Xenic & info [ "system"; "s" ]
           ~doc:(system_doc "System"))
  in
  let workload =
    Arg.(value & opt workload_conv Smallbank & info [ "workload"; "w" ] ~doc:"Workload: smallbank, retwis, tpcc, tpcc-neworder.")
  in
  let nodes = Arg.(value & opt int 6 & info [ "nodes" ] ~doc:"Cluster size.") in
  let replication =
    Arg.(value & opt int 3 & info [ "replication" ] ~doc:"Copies per shard.")
  in
  let concurrency =
    Arg.(value & opt int 16 & info [ "concurrency"; "c" ] ~doc:"Outstanding transactions per node.")
  in
  let target =
    Arg.(value & opt int 10_000 & info [ "target"; "n" ] ~doc:"Committed-transaction target.")
  in
  let scale =
    Arg.(value & opt int 20_000 & info [ "scale" ] ~doc:"Keys/accounts per node (drives TPC-C warehouses).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Workload RNG seed.") in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Attach the execution trace and write it to $(docv) as Chrome \
             trace_event JSON; print the per-phase latency breakdown and \
             the abort-reason taxonomy.")
  in
  let profile_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"PREFIX"
          ~doc:
            "Enable time attribution; write $(docv).txt (bottleneck \
             report) and $(docv).folded (collapsed-stack flamegraph), and \
             print the report.")
  in
  let telemetry_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"PREFIX"
          ~doc:
            "Attach the windowed flight recorder; print the per-window \
             rollup table and the online detector verdicts (retry-storm, \
             queue-growth, Little's-law residual, SLO burn rate), and \
             write $(docv).json (BENCH-style flat metrics, byte-gateable \
             with $(b,xenicctl bench diff)) and $(docv).prom (OpenMetrics \
             text exposition).")
  in
  let telemetry_window =
    Arg.(
      value & opt float 100.0
      & info [ "window-us" ]
          ~doc:"Telemetry window width in microseconds ($(b,--telemetry)).")
  in
  let slo_latency =
    Arg.(
      value & opt float 100.0
      & info [ "slo-latency-us" ]
          ~doc:"Latency objective for the SLO burn-rate detector.")
  in
  let slo_target =
    Arg.(
      value & opt float 0.99
      & info [ "slo-target" ]
          ~doc:
            "Fraction of offered requests that should commit within the \
             latency objective (in (0, 1)).")
  in
  let run_term =
    Term.(
      const run_cmd $ trace_out $ profile_out $ telemetry_out
      $ telemetry_window $ slo_latency $ slo_target $ system $ workload
      $ nodes $ replication $ concurrency $ target $ scale $ seed)
  in
  let diff_a =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"A.json" ~doc:"Reference BENCH_*.json file.")
  in
  let diff_b =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"B.json" ~doc:"Candidate BENCH_*.json file.")
  in
  let diff_tol =
    Arg.(
      value & opt float 0.05
      & info [ "tol" ] ~doc:"Relative tolerance per metric.")
  in
  let diff_ignore =
    Arg.(
      value & opt_all string []
      & info [ "ignore-prefix" ]
          ~doc:
            "Drop metrics whose key starts with $(docv) before comparing \
             (repeatable). Use for machine-dependent values, e.g. \
             $(b,--ignore-prefix wallclock) when byte-gating \
             BENCH_scale.json.")
  in
  let bench_diff_term =
    Term.(const bench_diff_cmd $ diff_a $ diff_b $ diff_tol $ diff_ignore)
  in
  let scn_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE.scn" ~doc:"Scenario file (s-expression text).")
  in
  let scn_stack =
    Arg.(
      value & opt system_conv System.Xenic
      & info [ "stack"; "s" ] ~doc:(system_doc "Stack"))
  in
  let scn_seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Run seed.")
  in
  let scn_target =
    Arg.(
      value & opt int 300
      & info [ "target"; "n" ]
          ~doc:"Committed-transaction target (closed-loop scenarios only).")
  in
  let scn_concurrency =
    Arg.(
      value & opt int 8
      & info [ "concurrency"; "c" ]
          ~doc:
            "Outstanding transactions per coordinator (closed-loop \
             scenarios only).")
  in
  let scn_verbose =
    Arg.(
      value & flag
      & info [ "digest" ]
          ~doc:"Also print the lossless run digest (bit-identity checks).")
  in
  let scenario_run_term =
    Term.(
      const scenario_run_cmd $ scn_file $ scn_stack $ scn_seed $ scn_target
      $ scn_concurrency $ scn_verbose)
  in
  Cmd.group
    (Cmd.info "xenicctl" ~doc:"Run Xenic-reproduction benchmarks")
    [
      Cmd.v
        (Cmd.info "run"
           ~doc:
             "Run a benchmark and print summary metrics; optionally write \
              its trace, profile and telemetry.")
        run_term;
      Cmd.group
        (Cmd.info "bench" ~doc:"Benchmark artifact utilities.")
        [
          Cmd.v
            (Cmd.info "diff"
               ~doc:
                 "Compare two BENCH_*.json metric files with a relative \
                  tolerance; print per-metric deltas and exit nonzero if \
                  any metric regressed out of tolerance.")
            bench_diff_term;
        ];
      Cmd.group
        (Cmd.info "scenario"
           ~doc:"Declarative fault/load scenario utilities.")
        [
          Cmd.v
            (Cmd.info "run"
               ~doc:
                 "Validate a scenario file and drive it end to end on one \
                  stack under the scenario harness (strict engine, \
                  serializability oracle); print the outcome and nonzero \
                  counters, exiting nonzero on a violation.")
            scenario_run_term;
        ];
    ]

let () = exit (Cmd.eval cmd)
