(* Open-loop offered-load sweep: goodput and tail latency vs offered
   rate under admission control, across all six stacks.

   The closed-loop experiments (fig8, scale) measure capacity — the
   open-loop driver measures behavior at and past capacity: arrivals
   are Poisson at a configured cluster-wide rate over a churning
   logical user population, each coordinator runs a bounded admission
   queue (depth + NIC-ingress backpressure + service deadline), and
   requests the system cannot absorb are shed instead of queued
   without bound. Each sweep point records offered load, goodput,
   arrival-to-commit tail latency, and the shed rate.

   A second scenario demonstrates (then mitigates) a metastable retry
   storm on Xenic: a flash-crowd burst with client-side retries over an
   unbounded queue leaves a backlog + retry load that outlives the
   burst — post-burst goodput stays depressed after the trigger is
   gone — while deadline-bounded admission sheds the stale work and
   recovers. Run it with XENIC_DOMAINS=2 to exercise the windowed
   multi-domain path: sweep systems are built with [partitions = 2],
   whose results are bit-identical for any domain count (the rerun
   below re-checks one point per stack, plus an explicit 2-domain
   parity run).

   Every simulated number is deterministic for the fixed seed;
   run_bench.sh gates the emitted BENCH_load.json byte-for-byte
   against a checked-in reference (wall-clock keys excluded). *)

open Xenic_proto
open Xenic_workload
module Telemetry = Xenic_telemetry.Telemetry
module Detect = Xenic_telemetry.Detect

let seed = 23L

let retwis_params () =
  { Retwis.default_params with keys_per_node = Common.scale 8_000 }

(* Cluster-wide offered rates (txn/s) swept at each stack. With 4
   service slots per coordinator the knee sits between 1M and 4M
   cluster-wide, so the grid spans comfortable to deep overload. *)
let rates = [ 250_000.0; 500_000.0; 1_000_000.0; 2_000_000.0; 4_000_000.0 ]

let duration_ns () = float_of_int (Common.scale 10) *. 1e6

let sweep_admission =
  { Admission.capacity = 64; backpressure = 8.0; deadline_ns = 1e6 }

(* partitions = 2: the windowed-PDES configuration. Results are
   bit-identical whether the engine runs 1 domain or XENIC_DOMAINS
   many, so the JSON reference is stable across machines. *)
let systems ?domains () =
  let p = retwis_params () in
  Common.systems ?domains
    ~xenic:
      {
        Xenic_system.default_params with
        cache_capacity = 2 * p.Retwis.keys_per_node;
      }
    ~partitions:2 ~store_cfg:(Retwis.store_cfg p)
    ~buckets:(Retwis.chained_buckets p) ()

let fingerprint sys (r : Openloop.result) =
  Printf.sprintf "o=%d a=%d c=%d ab=%d rt=%d sh=%d now=%h good=%h med=%h p99=%h"
    r.Openloop.offered r.Openloop.admitted r.Openloop.committed
    r.Openloop.aborted r.Openloop.retried r.Openloop.shed_total
    (Xenic_sim.Engine.now sys.System.engine)
    r.Openloop.goodput_tps r.Openloop.median_latency_us
    r.Openloop.p99_latency_us

let run_point ?telemetry_window ~rate mk =
  let p = retwis_params () in
  let sys = mk () in
  Retwis.load p sys;
  let telemetry =
    Option.map
      (fun window_ns -> Telemetry.create ~window_ns sys.System.engine)
      telemetry_window
  in
  let result =
    Openloop.run ~seed ?telemetry ~admission:sweep_admission ~service_slots:4
      ~users:2_000_000 sys (Retwis.openloop_spec p)
      ~phases:
        [
          {
            Openloop.duration_ns = duration_ns ();
            rate_tps = rate;
            theta = p.Retwis.zipf_theta;
            hot_frac = 0.05;
          };
        ]
  in
  (sys, result, telemetry)

(* Rerun point: past the knee so admission is actually working. *)
let rerun_rate = 2_000_000.0

let run () =
  Common.section
    "Load: open-loop offered rate vs goodput / tail latency, Retwis, all \
     stacks (fixed seed)";
  let cells = Hashtbl.create 64 in
  List.iter
    (fun (name, mk) ->
      Printf.printf "\n  %s\n" name;
      Printf.printf "    %12s %12s %10s %10s %10s\n" "offered/s" "goodput/s"
        "median_us" "p99_us" "shed%";
      List.iter
        (fun rate ->
          let sys, r, _ = run_point ~rate mk in
          let shed_frac =
            if r.Openloop.offered = 0 then 0.0
            else
              float_of_int r.Openloop.shed_total
              /. float_of_int r.Openloop.offered
          in
          Printf.printf "    %12.0f %12.0f %10.1f %10.1f %9.1f%%\n" rate
            r.Openloop.goodput_tps r.Openloop.median_latency_us
            r.Openloop.p99_latency_us (100.0 *. shed_frac);
          let k suffix = Printf.sprintf "%s @%.0f %s" name rate suffix in
          Common.json_int (k "offered") r.Openloop.offered;
          Common.json_int (k "admitted") r.Openloop.admitted;
          Common.json_int (k "committed") r.Openloop.committed;
          Common.json_int (k "aborted") r.Openloop.aborted;
          Common.json_num (k "goodput_tps") r.Openloop.goodput_tps;
          Common.json_num (k "median_us") r.Openloop.median_latency_us;
          Common.json_num (k "p99_us") r.Openloop.p99_latency_us;
          Common.json_num (k "shed_frac") shed_frac;
          List.iter
            (fun (cause, n) ->
              if n > 0 then Common.json_int (k ("shed " ^ cause)) n)
            r.Openloop.shed;
          Hashtbl.replace cells (name, rate) (fingerprint sys r))
        rates)
    (systems ());
  (* Same-seed rerun + explicit 2-domain run of one sweep point per
     stack: both must be bit-identical to the recorded cell. The reruns
     carry a telemetry recorder while the first runs did not, so this
     gate also proves observation is event-free — attaching the flight
     recorder does not perturb the run. The two recorders' exports
     must in turn be byte-identical across 1 vs 2 domains. A
     divergence aborts the experiment (no JSON keys), so the checked-in
     reference is unaffected. *)
  Printf.printf "\n    %-10s %8s %12s %14s\n" "stack" "rerun" "2-dom parity"
    "telemetry";
  let tel_window = duration_ns () /. 20.0 in
  List.iter2
    (fun (name, mk) (_, mk2) ->
      let first = Hashtbl.find cells (name, rerun_rate) in
      let sys, r, tel1 =
        run_point ~telemetry_window:tel_window ~rate:rerun_rate mk
      in
      let again = fingerprint sys r in
      if not (String.equal first again) then
        failwith
          (Printf.sprintf
             "load: %s @%.0f telemetry-attached same-seed rerun diverged:\n\
             \  %s\n\
             \  %s"
             name rerun_rate first again);
      let sys2, r2, tel2 =
        run_point ~telemetry_window:tel_window ~rate:rerun_rate mk2
      in
      let two_dom = fingerprint sys2 r2 in
      if not (String.equal first two_dom) then
        failwith
          (Printf.sprintf
             "load: %s @%.0f 2-domain run diverged from 1-domain:\n  %s\n  %s"
             name rerun_rate first two_dom);
      let tel_json t =
        Telemetry.to_json (Option.get t) ~id:"load-parity" ~description:name
      in
      if not (String.equal (tel_json tel1) (tel_json tel2)) then
        failwith
          (Printf.sprintf
             "load: %s @%.0f telemetry series diverged between 1 and 2 \
              domains"
             name rerun_rate);
      Printf.printf "    %-10s %8s %12s %14s\n" name "ok" "identical"
        "identical")
    (systems ()) (systems ~domains:2 ());
  Common.note "same-seed rerun @%.0f: bit-identical for all stacks, 1 and 2 \
               domains, telemetry attached" rerun_rate;
  (* Metastable retry storm, demonstrated then mitigated (Xenic,
     legacy single-partition mode, client-side retries). Phase 2 is a
     celebrity flash crowd 4x past capacity; phase 3 returns to the
     moderate phase-1 rate. Outcomes are attributed to the phase a
     request arrived in, so phase 3's committed count reads directly as
     post-burst recovery. *)
  Common.section "Load: metastable retry storm — unbounded vs bounded queue";
  (* 2 service slots/coordinator caps service near 1.1M/s; the burst
     offers ~5x that, so an unbounded queue accumulates a backlog whose
     drain time exceeds the entire post-burst phase. *)
  let p = retwis_params () in
  let base = 150_000.0 and burst = 6_000_000.0 in
  let seg = duration_ns () /. 2.0 in
  let phases =
    [
      { Openloop.duration_ns = seg; rate_tps = base; theta = 0.5; hot_frac = 0.0 };
      { Openloop.duration_ns = seg; rate_tps = burst; theta = 0.9; hot_frac = 0.6 };
      { Openloop.duration_ns = 2.0 *. seg; rate_tps = base; theta = 0.5; hot_frac = 0.0 };
    ]
  in
  let scenario label admission =
    let sys =
      System.create ~nodes:Common.cluster_nodes ~replication:Common.replication
        ~xenic:
          {
            Xenic_system.default_params with
            cache_capacity = 2 * p.Retwis.keys_per_node;
          }
        ~store_cfg:(Retwis.store_cfg p) ~buckets:(Retwis.chained_buckets p)
        System.Xenic
    in
    Retwis.load p sys;
    (* 10 windows per phase segment: enough resolution for the online
       detectors at either run scale. *)
    let tel = Telemetry.create ~window_ns:(seg /. 10.0) sys.System.engine in
    let r =
      Openloop.run ~seed ~telemetry:tel ~admission ~service_slots:2 ~retries:4
        ~users:2_000_000 sys (Retwis.openloop_spec p) ~phases
    in
    let post = r.Openloop.per_phase.(2) in
    Printf.printf
      "    %-11s post-burst committed=%6d shed=%6d retried=%6d (whole run: \
       committed=%d shed=%d)\n"
      label post.Openloop.p_committed post.Openloop.p_shed r.Openloop.retried
      r.Openloop.committed r.Openloop.shed_total;
    let k suffix = Printf.sprintf "storm %s %s" label suffix in
    Common.json_int (k "post-burst committed") post.Openloop.p_committed;
    Common.json_int (k "post-burst shed") post.Openloop.p_shed;
    Common.json_int (k "retried") r.Openloop.retried;
    Common.json_int (k "committed") r.Openloop.committed;
    Common.json_int (k "shed_total") r.Openloop.shed_total;
    (* Online detectors over the per-window rollup. *)
    let roll = Telemetry.rollup tel in
    let verdicts =
      Detect.all { Detect.latency_ns = 100_000.0; target = 0.99 } roll
    in
    List.iter
      (fun (dname, (v : Detect.verdict)) ->
        Printf.printf "      detect %-12s %s (%s)\n" dname
          (if v.Detect.flagged then "FLAGGED" else "clean")
          v.Detect.detail;
        Common.json_int
          (k ("detect " ^ dname))
          (if v.Detect.flagged then 1 else 0))
      verdicts;
    (tel, List.assoc "retry-storm" verdicts, post.Openloop.p_committed)
  in
  let tel_u, storm_u, unmitigated = scenario "unbounded" Admission.unlimited in
  let _, storm_b, mitigated =
    scenario "bounded"
      { Admission.capacity = 16; backpressure = 6.0; deadline_ns = 300_000.0 }
  in
  if mitigated <= unmitigated then
    failwith
      (Printf.sprintf
         "load: admission control failed to mitigate the retry storm \
          (post-burst committed %d bounded vs %d unbounded)"
         mitigated unmitigated);
  if not storm_u.Detect.flagged then
    failwith
      (Printf.sprintf
         "load: retry-storm detector missed the unbounded-admission storm \
          (%s)"
         storm_u.Detect.detail);
  if storm_b.Detect.flagged then
    failwith
      (Printf.sprintf
         "load: retry-storm detector false positive on bounded admission (%s)"
         storm_b.Detect.detail);
  Common.note
    "bounded admission recovers post-burst goodput: %d committed vs %d \
     unbounded (%.1fx); storm flagged on unbounded, clean on bounded"
    mitigated unmitigated
    (float_of_int mitigated /. float_of_int (max 1 unmitigated));
  (* Flight-recorder artifacts from the unbounded storm run: flat JSON
     (byte-gated by run_bench.sh against bench/ref) and OpenMetrics
     text (validated structurally here). *)
  let write path s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  write "TELEMETRY_load.json"
    (Telemetry.to_json tel_u ~id:"load"
       ~description:"retry storm, unbounded admission, Xenic");
  let om = Telemetry.to_openmetrics tel_u in
  (match Telemetry.validate_openmetrics om with
  | Ok () -> ()
  | Error e -> failwith ("load: invalid OpenMetrics exposition: " ^ e));
  write "TELEMETRY_load.prom" om;
  Common.note "telemetry artifacts: TELEMETRY_load.json, TELEMETRY_load.prom"
