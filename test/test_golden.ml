(* Golden regression guard for the simulator hot path.

   Fixed-seed runs of all six protocol stacks are digested into a
   lossless textual snapshot — driver results and every Metrics
   counter/histogram printed with %h floats, plus the byte-exact Chrome
   trace JSON — and compared against checked-in golden files. Any
   engine/heap/mailbox/resource rewrite that changes event order,
   timing, or accounting in any way shows up as a byte diff here.

   Regenerate the snapshots (after an INTENDED behaviour change only)
   with

     XENIC_GOLDEN_BLESS=1 dune runtest --force test

   then copy _build/default/test/golden/*.golden over test/golden/. *)

open Xenic_sim
open Xenic_cluster
open Xenic_proto
open Xenic_workload

let seed = 7L

let sb_params = { Smallbank.default_params with accounts_per_node = 400 }

(* Armed runs (see below) use test_fault's setup: an armed stack on a
   strict engine. *)
let mk_with features stack ~armed =
  System.create ~strict:armed ~armed ~nodes:4 ~replication:3
    ~xenic:{ Xenic_system.default_params with features; cache_capacity = 256 }
    ~store_cfg:(Smallbank.store_cfg sb_params)
    ~buckets:(Smallbank.chained_buckets sb_params) stack

(* Golden files spell drtmh-nc as drtmh_nc. *)
let stacks =
  List.map
    (fun stack ->
      ( String.map (function '-' -> '_' | c -> c) (System.stack_name stack),
        mk_with Features.full stack ))
    System.stacks

(* Lossless metrics digest: %h floats so equal strings mean
   bit-identical stats, histograms pinned by count/total/quantiles. *)
let digest sys (result : Driver.result) =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let m = sys.System.metrics () in
  line "stack=%s engine_events=%d now=%h" sys.System.name
    (Engine.events_run sys.System.engine)
    (Engine.now sys.System.engine);
  line "committed=%d aborted=%d" result.Driver.committed result.Driver.aborted;
  line "tput=%h median=%h p99=%h abort_rate=%h duration=%h"
    result.Driver.tput_per_server result.Driver.median_latency_us
    result.Driver.p99_latency_us result.Driver.abort_rate
    result.Driver.duration_ns;
  line "sys_committed=%d sys_aborted=%d" (Metrics.committed m)
    (Metrics.aborted m);
  List.iter
    (fun (reason, n) -> line "abort_reason %s=%d" reason n)
    (Metrics.abort_reason_counts m);
  List.iter
    (fun (phase, h) ->
      line "phase %s count=%d total=%h median=%h p99=%h" phase
        (Xenic_stats.Histogram.count h)
        (Xenic_stats.Histogram.total h)
        (Xenic_stats.Histogram.median h)
        (Xenic_stats.Histogram.p99 h))
    (Metrics.phase_stats m);
  List.iter
    (fun (k, v) -> line "counter %s=%h" k v)
    (Xenic_stats.Counter.to_list (Metrics.counters m));
  Buffer.contents b

let bless = Sys.getenv_opt "XENIC_GOLDEN_BLESS" <> None

let golden_path name = Filename.concat "golden" name

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  if not (Sys.file_exists "golden") then Sys.mkdir "golden" 0o755;
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Compare [got] against the checked-in snapshot; in bless mode write
   it instead. On mismatch, fail with the first differing line so the
   diff is actionable without opening the files. *)
let check_golden name got =
  let path = golden_path name in
  if bless then write_file path got
  else if not (Sys.file_exists path) then
    Alcotest.failf
      "golden file %s missing — run with XENIC_GOLDEN_BLESS=1 and copy \
       _build/default/test/golden/ into test/golden/"
      path
  else
    let want = read_file path in
    if String.equal want got then ()
    else begin
      let want_lines = String.split_on_char '\n' want in
      let got_lines = String.split_on_char '\n' got in
      let rec first_diff i = function
        | w :: ws, g :: gs ->
            if String.equal w g then first_diff (i + 1) (ws, gs)
            else (i, w, g)
        | w :: _, [] -> (i, w, "<eof>")
        | [], g :: _ -> (i, "<eof>", g)
        | [], [] -> (i, "<eof>", "<eof>")
      in
      let line, w, g = first_diff 1 (want_lines, got_lines) in
      Alcotest.failf
        "%s diverged at line %d:\n  golden:  %s\n  current: %s\n(%d vs %d \
         lines; the sim hot path is no longer bit-identical)"
        path line w g (List.length want_lines) (List.length got_lines)
    end

let run_stack mk =
  let sys = mk ~armed:false in
  Smallbank.load sb_params sys;
  let trace = Trace.create sys.System.engine in
  let result =
    Driver.run sys
      (Smallbank.spec sb_params ~nodes:sys.System.cfg.Config.nodes)
      ~seed ~trace ~sample_period_ns:20_000.0 ~concurrency:4 ~target:120
  in
  (sys, result, trace)

let test_stack (name, mk) () =
  let sys, result, trace = run_stack mk in
  Alcotest.(check bool)
    (Printf.sprintf "%s made progress" name)
    true
    (result.Driver.committed > 0);
  Alcotest.(check int)
    (Printf.sprintf "%s trace dropped nothing" name)
    0 (Trace.dropped trace);
  check_golden (name ^ ".metrics.golden") (digest sys result);
  check_golden (name ^ ".trace.golden") (Trace.to_chrome_json trace)

(* {2 Armed runs: the fault-tolerant commit path}

   The un-armed snapshots above never take the commit fence or leave a
   LOG record pending. These runs build the stacks armed (request
   deadlines, the fenced commit point, a lease-based membership) and
   crash node 2 mid-run (test_fault's setup), so every exit of the armed commit point — fence refused,
   coordinator dead mid-LOG, backups discarding an aborted record — is
   pinned by a metrics digest. *)

let run_armed mk =
  let sys = mk ~armed:true in
  Smallbank.load sb_params sys;
  let nodes = sys.System.cfg.Config.nodes in
  Xenic_scenario.Scenario.(
    inject
      (make ~name:"crash" ~nodes [ { at_ns = 80_000.0; action = Crash 2 } ])
      sys ~seed:0L);
  let result =
    Driver.run sys (Smallbank.spec sb_params ~nodes) ~seed ~concurrency:8
      ~target:400
  in
  (sys, result)

(* Lazy, so the coverage check below reuses the per-stack runs. *)
let armed_stacks =
  List.map (fun (name, mk) -> (name, lazy (run_armed mk))) stacks

let test_armed (name, run) () =
  let sys, result = Lazy.force run in
  Alcotest.(check bool)
    (Printf.sprintf "%s made progress" name)
    true
    (result.Driver.committed > 0);
  check_golden (name ^ ".armed.golden") (digest sys result)

(* Xenic's restricted operation set ([Features.baseline]: per-key
   EXECUTE and VALIDATE requests, no batching, blocking DMA, host
   execution, no cache), which none of the six stacks above runs:
   un-armed, and armed with the mid-run crash. *)
let test_xenic_baseline () =
  let sys, result, _ = run_stack (mk_with Features.baseline System.Xenic) in
  Alcotest.(check bool) "baseline made progress" true
    (result.Driver.committed > 0);
  check_golden "xenic_baseline.metrics.golden" (digest sys result)

let test_xenic_baseline_armed () =
  let sys, result = run_armed (mk_with Features.baseline System.Xenic) in
  Alcotest.(check bool) "armed baseline made progress" true
    (result.Driver.committed > 0);
  check_golden "xenic_baseline.armed.golden" (digest sys result)

(* Between them the six armed runs must reach every armed exit of the
   commit point and of the request shell, or the goldens above stop
   guarding them. *)
let test_armed_coverage () =
  let total f =
    List.fold_left
      (fun acc (_, run) ->
        let sys, _ = Lazy.force run in
        acc +. f (sys.System.metrics ()))
      0.0 armed_stacks
  in
  let counter name m =
    Option.value ~default:0.0
      (List.assoc_opt name (Xenic_stats.Counter.to_list (Metrics.counters m)))
  in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "some stack counts %s" name)
        true
        (total (counter name) > 0.0))
    [
      "fence_refusals";
      "log_discards";
      "log_from_dead_coord";
      (* the request shell's three armed exits (Control.call) *)
      "req_timeouts";
      "stale_epoch_rejects";
      "stale_epoch_drops";
    ];
  Alcotest.(check bool) "some stack aborts with crashed-owner" true
    (total (fun m ->
         float_of_int
           (Option.value ~default:0
              (List.assoc_opt "crashed-owner" (Metrics.abort_reason_counts m))))
    > 0.0)

(* The closed loop's observability output: one fixed-seed Xenic run
   with a flight recorder (windowed commit/abort counts plus the
   occupancy integrals the driver takes at completions) and the
   time-attribution profile (report and flamegraph), pinned byte for
   byte. *)
let test_closed_loop_observe () =
  let sys = mk_with Features.full System.Xenic ~armed:false in
  Smallbank.load sb_params sys;
  let telemetry =
    Xenic_telemetry.Telemetry.create ~window_ns:10_000.0 sys.System.engine
  in
  let result =
    Driver.run sys
      (Smallbank.spec sb_params ~nodes:sys.System.cfg.Config.nodes)
      ~seed ~telemetry ~profile:true ~concurrency:4 ~target:120
  in
  let profile = Option.get result.Driver.profile in
  check_golden "xenic.observe.golden"
    (Xenic_telemetry.Telemetry.to_json telemetry ~id:"closed-loop"
       ~description:"xenic smallbank, seed 7"
    ^ "\n"
    ^ Xenic_profile.Profile.report profile
    ^ Xenic_profile.Profile.folded profile);
  (* [to_json] rounds floats to six significant digits; pin the same
     run's occupancy integrals and latency sums losslessly. *)
  check_golden "xenic.observe.series.golden"
    (String.concat ""
       (List.map
          (fun (s : Xenic_telemetry.Telemetry.series) ->
            Printf.sprintf "win=%d %s/%d/%d/%s committed=%d lat=%d:%h%s\n"
              s.win s.stack s.node s.part s.label s.s_committed
              (Xenic_stats.Histogram.count s.s_lat)
              (Xenic_stats.Histogram.total s.s_lat)
              (String.concat ""
                 (List.map
                    (fun (r, v) -> Printf.sprintf " %s=%h" r v)
                    s.s_occ)))
          (Xenic_telemetry.Telemetry.series telemetry)))

(* The digest itself must be reproducible within a process, otherwise
   a golden mismatch could be mistaken for cross-run nondeterminism. *)
let test_digest_reproducible () =
  let _, mk = List.hd stacks in
  let sys1, r1, tr1 = run_stack mk in
  let sys2, r2, tr2 = run_stack mk in
  Alcotest.(check string) "same-seed digests agree" (digest sys1 r1)
    (digest sys2 r2);
  Alcotest.(check string) "same-seed traces agree" (Trace.to_chrome_json tr1)
    (Trace.to_chrome_json tr2)

let () =
  Alcotest.run "xenic_golden"
    [
      ( "six stacks",
        List.map
          (fun (name, mk) ->
            Alcotest.test_case name `Quick (test_stack (name, mk)))
          stacks
        @ [ Alcotest.test_case "xenic_baseline" `Quick test_xenic_baseline ] );
      ( "six stacks (armed, mid-run crash)",
        List.map
          (fun (name, run) ->
            Alcotest.test_case name `Quick (test_armed (name, run)))
          armed_stacks
        @ [
            Alcotest.test_case "xenic_baseline" `Quick test_xenic_baseline_armed;
            Alcotest.test_case "every armed exit reached" `Quick
              test_armed_coverage;
          ] );
      ( "closed-loop observability",
        [ Alcotest.test_case "xenic" `Quick test_closed_loop_observe ] );
      ( "self-check",
        [
          Alcotest.test_case "same-seed reproducibility" `Quick
            test_digest_reproducible;
        ] );
    ]
