(* Tests for the telemetry flight recorder: window-clock boundary
   arithmetic, hand-computed window/shard accounting, cutoff semantics
   (the open-loop drain must not leak into accounting windows), byte
   stability and 1-vs-2-domain parity of the JSON export on all six
   stacks, OpenMetrics structural validity, and the online detectors on
   synthetic rollups. *)

open Xenic_sim
open Xenic_proto
open Xenic_workload
module Telemetry = Xenic_telemetry.Telemetry
module Detect = Xenic_telemetry.Detect
module Histogram = Xenic_stats.Histogram

(* ------------------------------------------------------------------ *)
(* Window clock *)

let test_wclock_edges () =
  let c = Wclock.make ~t0:0.0 ~width_ns:100.0 in
  Alcotest.(check int) "interior" 0 (Wclock.index c 99.0);
  Alcotest.(check int) "edge goes right" 1 (Wclock.index c 100.0);
  Alcotest.(check int) "before t0 clamps" 0 (Wclock.index c (-5.0));
  Alcotest.(check (float 1e-9)) "start" 200.0 (Wclock.start_of c 2);
  (* An exact multiple of the width yields no zero-width tail window. *)
  Alcotest.(check int) "n exact" 2 (Wclock.n_windows c ~t_end:200.0);
  Alcotest.(check int) "n partial" 3 (Wclock.n_windows c ~t_end:250.0);
  Alcotest.(check int) "n empty" 0 (Wclock.n_windows c ~t_end:0.0);
  (* An event exactly at a cutoff that sits on an edge folds into the
     last positive-width window instead of opening a phantom one. *)
  Alcotest.(check int) "cutoff-edge event folds left" 1
    (Wclock.clamped_index c ~t_end:200.0 200.0);
  Alcotest.(check (float 1e-9)) "full width" 100.0
    (Wclock.width_at c ~t_end:250.0 1);
  Alcotest.(check (float 1e-9)) "clipped width" 50.0
    (Wclock.width_at c ~t_end:250.0 2)

let test_wclock_integrate () =
  let c = Wclock.make ~t0:0.0 ~width_ns:100.0 in
  let got = ref [] in
  let collect w a = got := (w, a) :: !got in
  (* value 2.0 held over [50, 230): 50ns in w0, 100ns in w1, 30ns in
     w2, each scaled by the value. *)
  Wclock.integrate c ~t_end:250.0 ~from:50.0 ~until:230.0 ~value:2.0 collect;
  (match List.rev !got with
  | [ (0, a0); (1, a1); (2, a2) ] ->
      Alcotest.(check (float 1e-6)) "w0 area" 100.0 a0;
      Alcotest.(check (float 1e-6)) "w1 area" 200.0 a1;
      Alcotest.(check (float 1e-6)) "w2 area" 60.0 a2
  | l -> Alcotest.failf "unexpected span count %d" (List.length l));
  got := [];
  (* Clipped to [t0, t_end] on both sides. *)
  Wclock.integrate c ~t_end:100.0 ~from:(-50.0) ~until:150.0 ~value:1.0
    collect;
  (match List.rev !got with
  | [ (0, a0) ] -> Alcotest.(check (float 1e-6)) "clipped area" 100.0 a0
  | _ -> Alcotest.fail "expected exactly one clipped span");
  got := [];
  Wclock.integrate c ~t_end:100.0 ~from:80.0 ~until:20.0 ~value:1.0 collect;
  Alcotest.(check int) "inverted span integrates nothing" 0
    (List.length !got);
  (* Open end (no t_end): the span splits over uncut windows exactly as
     a recorder without a cutoff used to split it by hand. *)
  let by_hand ~from ~until ~value =
    let from = Float.max from (Wclock.t0 c) in
    let acc = ref [] in
    if Float.compare until from > 0 then
      for i = Wclock.index c from to Wclock.index c until do
        let w_lo = Float.max from (Wclock.start_of c i) in
        let w_hi = Float.min until (Wclock.start_of c (i + 1)) in
        let overlap = w_hi -. w_lo in
        if Float.compare overlap 0.0 > 0 then
          acc := (i, value *. overlap) :: !acc
      done;
    List.rev !acc
  in
  let open_areas ~from ~until ~value =
    got := [];
    Wclock.integrate c ~from ~until ~value collect;
    List.rev !got
  in
  Alcotest.(check (list (pair int (float 0.0))))
    "open span over five windows"
    [ (0, 105.0); (1, 150.0); (2, 150.0); (3, 150.0); (4, 112.5) ]
    (open_areas ~from:30.0 ~until:475.0 ~value:1.5);
  List.iter
    (fun (from, until, value) ->
      Alcotest.(check (list (pair int (float 0.0))))
        (Printf.sprintf "open [%g, %g) matches the hand split" from until)
        (by_hand ~from ~until ~value)
        (open_areas ~from ~until ~value))
    [
      (30.0, 475.0, 1.5);
      (-20.0, 300.0, 0.25);
      (100.0, 200.0, 3.0);
      (0.1, 1_000.3, 7.0);
      (250.0, 250.0, 1.0);
    ]

(* ------------------------------------------------------------------ *)
(* Hand-computed recording *)

let test_windows_hand_computed () =
  let eng = Engine.create () in
  let tel = Telemetry.create ~window_ns:100.0 eng in
  let commit ~at ~lat =
    Engine.at eng at (fun () ->
        Telemetry.record_commit tel ~stack:"S" ~node:0 ~latency_ns:lat)
  in
  commit ~at:10.0 ~lat:5.0;
  commit ~at:100.0 ~lat:7.0;
  (* exactly on the edge: right window *)
  Engine.at eng 150.0 (fun () ->
      Telemetry.record_abort tel ~stack:"S" ~node:1 ~reason:"conflict"
        ~latency_ns:3.0;
      Telemetry.record_offered tel ~stack:"S" ~node:1;
      Telemetry.record_admitted tel ~stack:"S" ~node:1;
      Telemetry.record_shed tel ~stack:"S" ~node:1 ~cause:"queue-full";
      Telemetry.sample_queue tel ~stack:"S" ~node:1 ~depth:4);
  ignore (Engine.run eng);
  Telemetry.seal tel;
  Alcotest.(check int) "windows" 2 (Telemetry.n_windows tel);
  let roll = Telemetry.rollup tel in
  Alcotest.(check int) "w0 committed" 1 roll.(0).Telemetry.a_committed;
  Alcotest.(check int) "edge commit lands right" 1
    roll.(1).Telemetry.a_committed;
  Alcotest.(check int) "w1 aborted" 1 roll.(1).Telemetry.a_aborted;
  Alcotest.(check int) "w1 offered" 1 roll.(1).Telemetry.a_offered;
  Alcotest.(check int) "w1 admitted" 1 roll.(1).Telemetry.a_admitted;
  Alcotest.(check int) "w1 shed" 1 roll.(1).Telemetry.a_shed;
  Alcotest.(check (float 1e-9)) "w1 queue mean" 4.0
    roll.(1).Telemetry.a_q_mean;
  Alcotest.(check int) "w1 latency samples" 2
    (Histogram.count roll.(1).Telemetry.a_lat);
  (* Cells stay per-dimension and come out in export order. *)
  match Telemetry.series tel with
  | [ c0; c1; c2 ] ->
      Alcotest.(check (pair int int)) "cell 0" (0, 0) (c0.Telemetry.win, c0.Telemetry.node);
      Alcotest.(check (pair int int)) "cell 1" (1, 0) (c1.Telemetry.win, c1.Telemetry.node);
      Alcotest.(check (pair int int)) "cell 2" (1, 1) (c2.Telemetry.win, c2.Telemetry.node);
      Alcotest.(check (list (pair string int))) "abort reasons"
        [ ("conflict", 1) ] c2.Telemetry.s_aborted;
      Alcotest.(check (list (pair string int))) "shed causes"
        [ ("queue-full", 1) ] c2.Telemetry.s_shed
  | s -> Alcotest.failf "expected 3 cells, got %d" (List.length s)

let test_cutoff_drops_drain () =
  let eng = Engine.create () in
  let tel = Telemetry.create ~window_ns:100.0 eng in
  Telemetry.set_cutoff tel 200.0;
  let commit at =
    Engine.at eng at (fun () ->
        Telemetry.record_commit tel ~stack:"S" ~node:0 ~latency_ns:1.0)
  in
  commit 50.0;
  commit 200.0;
  (* exactly at the cutoff: kept, folded into the last window *)
  commit 260.0;
  (* past the cutoff: dropped *)
  ignore (Engine.run eng);
  Telemetry.seal tel;
  Alcotest.(check (float 1e-9)) "t_end clipped to cutoff" 200.0
    (Telemetry.t_end tel);
  Alcotest.(check int) "windows" 2 (Telemetry.n_windows tel);
  let roll = Telemetry.rollup tel in
  Alcotest.(check int) "w0 committed" 1 roll.(0).Telemetry.a_committed;
  Alcotest.(check int) "cutoff-edge commit folded into final window" 1
    roll.(1).Telemetry.a_committed;
  let total = Array.fold_left (fun a w -> a + w.Telemetry.a_committed) 0 roll in
  Alcotest.(check int) "drain commit not counted" 2 total

let test_shard_merge () =
  (* A windowed 2-partition engine on 1 domain: each recorder call
     writes the shard of its executing partition, and the merged export
     keeps shard identity as the [part] dimension, in sorted order. *)
  let eng = Engine.create ~domains:1 () in
  Engine.set_topology ~lookahead:50.0 eng ~partitions:2
    ~node_partition:(fun n -> n mod 2);
  let tel = Telemetry.create ~window_ns:100.0 eng in
  Engine.at ~node:0 eng 10.0 (fun () ->
      Telemetry.record_commit tel ~stack:"S" ~node:7 ~latency_ns:5.0);
  Engine.at ~node:1 eng 20.0 (fun () ->
      Telemetry.record_commit tel ~stack:"S" ~node:7 ~latency_ns:9.0);
  ignore (Engine.run eng);
  Telemetry.seal tel;
  (match Telemetry.series tel with
  | [ c0; c1 ] ->
      Alcotest.(check int) "first cell shard" 0 c0.Telemetry.part;
      Alcotest.(check int) "second cell shard" 1 c1.Telemetry.part;
      Alcotest.(check int) "each shard one commit" 1 c0.Telemetry.s_committed;
      Alcotest.(check int) "same logical node" c0.Telemetry.node
        c1.Telemetry.node
  | s -> Alcotest.failf "expected 2 cells, got %d" (List.length s));
  let roll = Telemetry.rollup tel in
  Alcotest.(check int) "rollup folds shards" 2
    roll.(0).Telemetry.a_committed;
  Alcotest.(check int) "latency shards merged" 2
    (Histogram.count roll.(0).Telemetry.a_lat)

let test_rollup_merges_cells () =
  (* One window, cells from two partitions and two labels: the rollup
     merges all four into one aggregate. *)
  let eng = Engine.create ~domains:1 () in
  Engine.set_topology ~lookahead:50.0 eng ~partitions:2
    ~node_partition:(fun n -> n mod 2);
  let tel = Telemetry.create ~window_ns:100.0 eng in
  Engine.at ~node:0 eng 10.0 (fun () ->
      Telemetry.record_commit ~label:"a" tel ~stack:"S" ~node:0 ~latency_ns:5.0;
      Telemetry.record_abort ~label:"b" tel ~stack:"S" ~node:0
        ~reason:"conflict" ~latency_ns:9.0;
      Telemetry.sample_queue ~label:"a" tel ~stack:"S" ~node:0 ~depth:2);
  Engine.at ~node:1 eng 20.0 (fun () ->
      Telemetry.record_commit ~label:"a" tel ~stack:"S" ~node:1
        ~latency_ns:40.0;
      Telemetry.record_abort ~label:"a" tel ~stack:"S" ~node:1
        ~reason:"timeout" ~latency_ns:7.0;
      Telemetry.record_abort ~label:"b" tel ~stack:"S" ~node:1
        ~reason:"conflict" ~latency_ns:1000.0;
      Telemetry.sample_queue ~label:"b" tel ~stack:"S" ~node:1 ~depth:6;
      Telemetry.sample_queue ~label:"b" tel ~stack:"S" ~node:1 ~depth:1);
  ignore (Engine.run eng);
  Telemetry.seal tel;
  Alcotest.(check (list (pair int string)))
    "four cells: two partitions x two labels"
    [ (0, "a"); (0, "b"); (1, "a"); (1, "b") ]
    (List.map
       (fun s -> (s.Telemetry.part, s.Telemetry.label))
       (Telemetry.series tel));
  let roll = Telemetry.rollup tel in
  Alcotest.(check int) "one window" 1 (Array.length roll);
  let a = roll.(0) in
  Alcotest.(check int) "committed" 2 a.Telemetry.a_committed;
  Alcotest.(check int) "aborted: conflict x2 + timeout" 3 a.Telemetry.a_aborted;
  (* Queue samples 2, 6, 1. *)
  Alcotest.(check (float 0.0)) "queue mean" 3.0 a.Telemetry.a_q_mean;
  (* Latencies 5, 7, 9, 40, 1000: all exact bucket midpoints. *)
  let lat = a.Telemetry.a_lat in
  Alcotest.(check int) "latency samples" 5 (Histogram.count lat);
  Alcotest.(check (float 0.0)) "latency total" 1061.0 (Histogram.total lat);
  Alcotest.(check (float 0.0)) "latency median" 9.0 (Histogram.median lat);
  Alcotest.(check (float 0.0)) "latency p99" 1000.0 (Histogram.p99 lat);
  Alcotest.(check (float 0.0)) "latency q0" 5.0 (Histogram.quantile lat 0.0)

(* ------------------------------------------------------------------ *)
(* Full-stack byte parity *)

let retwis_small = { Retwis.default_params with keys_per_node = 500 }

let mk_open ~domains stack =
  System.create ~domains ~nodes:4 ~replication:3
    ~xenic:{ Xenic_system.default_params with cache_capacity = 1024 }
    ~partitions:2
    ~store_cfg:(Retwis.store_cfg retwis_small)
    ~buckets:(Retwis.chained_buckets retwis_small) stack

let open_admission =
  { Admission.capacity = 64; backpressure = 8.0; deadline_ns = 500_000.0 }

let tel_json ~domains stack =
  let sys = mk_open ~domains stack in
  Retwis.load retwis_small sys;
  let tel = Telemetry.create ~window_ns:100_000.0 sys.System.engine in
  ignore
    (Openloop.run ~seed:29L ~admission:open_admission ~service_slots:2
       ~users:2_000 ~telemetry:tel sys
       (Retwis.openloop_spec retwis_small)
       ~phases:
         [
           {
             Openloop.duration_ns = 600_000.0;
             rate_tps = 300_000.0;
             theta = 0.5;
             hot_frac = 0.1;
           };
         ]);
  Telemetry.to_json tel ~id:"parity" ~description:"parity"

let test_parity_stacks () =
  List.iter
    (fun stack ->
      let name = System.stack_name stack in
      let a = tel_json ~domains:1 stack in
      let a' = tel_json ~domains:1 stack in
      let b = tel_json ~domains:2 stack in
      Alcotest.(check string) (name ^ ": same-seed rerun byte-stable") a a';
      Alcotest.(check string) (name ^ ": 1 vs 2 domains byte-identical") a b)
    System.stacks

let test_openloop_drain_cutoff () =
  (* Regression for the drain leak: an unbounded queue with one service
     slot leaves a backlog the engine drains long after the arrival
     schedule ends; none of those completions may reach the windows. *)
  let sys = mk_open ~domains:1 System.Xenic in
  Retwis.load retwis_small sys;
  let tel = Telemetry.create ~window_ns:100_000.0 sys.System.engine in
  let r =
    Openloop.run ~seed:7L ~service_slots:1 ~users:2_000
      ~telemetry:tel sys
      (Retwis.openloop_spec retwis_small)
      ~phases:
        [
          {
            Openloop.duration_ns = 400_000.0;
            rate_tps = 2_000_000.0;
            theta = 0.5;
            hot_frac = 0.1;
          };
        ]
  in
  Alcotest.(check bool) "engine drained past the schedule" true
    (Float.compare (Engine.now sys.System.engine) 400_000.0 > 0);
  Alcotest.(check (float 1e-9)) "t_end clipped to the schedule"
    (Telemetry.t0 tel +. 400_000.0)
    (Telemetry.t_end tel);
  let roll = Telemetry.rollup tel in
  let commits =
    Array.fold_left (fun a w -> a + w.Telemetry.a_committed) 0 roll
  in
  Alcotest.(check int) "windowed commits = driver's in-window commits"
    r.Openloop.committed commits

let test_driver_telemetry_and_ttr () =
  let p = { Smallbank.default_params with accounts_per_node = 50 } in
  let sys =
    System.create ~nodes:4 ~replication:3
      ~xenic:{ Xenic_system.default_params with cache_capacity = 512 }
      ~store_cfg:(Smallbank.store_cfg p) ~buckets:(Smallbank.chained_buckets p)
      System.Xenic
  in
  Smallbank.load p sys;
  let tel = Telemetry.create ~window_ns:20_000.0 sys.System.engine in
  ignore
    (Driver.run ~seed:5L sys
       (Smallbank.spec p ~nodes:4)
       ~telemetry:tel ~concurrency:8 ~target:800);
  let roll = Telemetry.rollup tel in
  let commits =
    Array.fold_left (fun a w -> a + w.Telemetry.a_committed) 0 roll
  in
  (* The driver seals at the drain instant with no cutoff, so the
     windows account for every commit the system recorded. *)
  Alcotest.(check int) "windows hold every commit"
    (Metrics.committed (sys.System.metrics ()))
    commits;
  (* A healthy run "recovers" immediately after any mid-run instant. *)
  let mid =
    Telemetry.t0 tel +. ((Telemetry.t_end tel -. Telemetry.t0 tel) /. 2.0)
  in
  match Detect.time_to_recovery ~after_ns:mid roll with
  | Some ttr ->
      Alcotest.(check bool) "finite non-negative ttr" true
        (Float.is_finite ttr && Float.compare ttr 0.0 >= 0)
  | None -> Alcotest.fail "no recovery found on a healthy run"

(* ------------------------------------------------------------------ *)
(* OpenMetrics *)

let sealed_sample_tel () =
  let eng = Engine.create () in
  let tel = Telemetry.create ~window_ns:100.0 eng in
  Engine.at eng 10.0 (fun () ->
      Telemetry.record_commit tel ~label:"pay" ~stack:"S" ~node:0
        ~latency_ns:5.0;
      Telemetry.record_offered tel ~stack:"S" ~node:0;
      Telemetry.record_shed tel ~stack:"S" ~node:0 ~cause:"queue-full";
      Telemetry.sample_queue tel ~stack:"S" ~node:0 ~depth:3);
  ignore (Engine.run eng);
  Telemetry.seal tel;
  tel

let test_openmetrics_valid () =
  let om = Telemetry.to_openmetrics (sealed_sample_tel ()) in
  (match Telemetry.validate_openmetrics om with
  | Ok () -> ()
  | Error e -> Alcotest.failf "generated exposition invalid: %s" e);
  let is_err s = Result.is_error (Telemetry.validate_openmetrics s) in
  Alcotest.(check bool) "missing EOF rejected" true
    (is_err (String.sub om 0 (String.length om - 6)));
  Alcotest.(check bool) "sample before TYPE rejected" true
    (is_err ("xenic_bogus_total{a=\"b\"} 1\n" ^ om));
  Alcotest.(check bool) "non-numeric sample rejected" true
    (is_err "# TYPE foo gauge\nfoo{} fast\n# EOF\n");
  Alcotest.(check bool) "duplicate TYPE rejected" true
    (is_err "# TYPE foo gauge\n# TYPE foo gauge\n# EOF\n");
  Alcotest.(check bool) "content after EOF rejected" true
    (is_err "# TYPE foo gauge\nfoo{} 1\n# EOF\nfoo{} 2\n")

(* ------------------------------------------------------------------ *)
(* Detectors on synthetic rollups *)

let mk_agg ?(offered = 0) ?(admitted = 0) ?(committed = 0) ?(aborted = 0)
    ?(shed = 0) ?(q_mean = 0.0) ?(lat = []) i =
  let h = Histogram.create () in
  List.iter (fun (v, n) -> Histogram.record_n h v n) lat;
  {
    Telemetry.a_win = i;
    a_start_ns = float_of_int i *. 1_000.0;
    a_width_ns = 1_000.0;
    a_offered = offered;
    a_admitted = admitted;
    a_committed = committed;
    a_aborted = aborted;
    a_shed = shed;
    a_lat = h;
    a_q_mean = q_mean;
  }

let synth spec = Array.of_list (List.mapi (fun i f -> f i) spec)

let base i = mk_agg ~offered:10 ~committed:10 i

let burst i = mk_agg ~offered:100 ~committed:10 i

let test_retry_storm () =
  (* Goodput collapse outliving the burst. *)
  let collapsed i = mk_agg ~offered:10 ~committed:2 i in
  let storm =
    synth [ base; base; base; base; burst; burst;
            collapsed; collapsed; collapsed; collapsed ]
  in
  Alcotest.(check bool) "collapse flagged" true
    (Detect.retry_storm storm).Detect.flagged;
  (* The metastable disguise: goodput looks healthy because the
     unbounded queue serves stale backlog at full rate — the backlog
     arm must still flag it. *)
  let backlogged i = mk_agg ~offered:10 ~committed:10 ~q_mean:500.0 i in
  let disguised =
    synth [ base; base; base; base; burst; burst;
            backlogged; backlogged; backlogged; backlogged ]
  in
  Alcotest.(check bool) "sustained backlog flagged" true
    (Detect.retry_storm disguised).Detect.flagged;
  (* Clean recovery after the burst. *)
  let recovered =
    synth [ base; base; base; base; burst; burst; base; base; base; base ]
  in
  Alcotest.(check bool) "recovery clean" false
    (Detect.retry_storm recovered).Detect.flagged;
  (* No burst at all. *)
  let flat = synth [ base; base; base; base; base; base ] in
  Alcotest.(check bool) "flat clean" false
    (Detect.retry_storm flat).Detect.flagged

let test_queue_growth () =
  let growing =
    synth
      (List.map
         (fun d i -> mk_agg ~q_mean:d i)
         [ 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0; 256.0 ])
  in
  Alcotest.(check bool) "growth flagged" true
    (Detect.queue_growth growing).Detect.flagged;
  let capped = synth (List.init 9 (fun _ i -> mk_agg ~q_mean:16.0 i)) in
  Alcotest.(check bool) "bounded queue at capacity clean" false
    (Detect.queue_growth capped).Detect.flagged

let test_littles_law () =
  (* No admissions but a deep, rising queue: the L - lambda*W residual
     is the queue itself. *)
  let diverging =
    synth (List.map (fun q i -> mk_agg ~q_mean:q i) [ 40.0; 50.0; 60.0; 70.0 ])
  in
  Alcotest.(check bool) "divergence flagged" true
    (Detect.littles_law diverging).Detect.flagged;
  (* Balanced: admissions explain the observed queue. *)
  let balanced =
    synth
      (List.init 4 (fun _ i ->
           mk_agg ~admitted:10 ~committed:10 ~q_mean:1.0
             ~lat:[ (100.0, 10) ] i))
  in
  Alcotest.(check bool) "balanced clean" false
    (Detect.littles_law balanced).Detect.flagged

let test_slo_burn () =
  let slo = { Detect.latency_ns = 1_000.0; target = 0.9 } in
  let fast =
    synth
      (List.init 4 (fun _ i ->
           mk_agg ~offered:10 ~committed:10 ~lat:[ (100.0, 10) ] i))
  in
  Alcotest.(check bool) "within objective clean" false
    (Detect.slo_burn slo fast).Detect.flagged;
  let slow =
    synth
      (List.init 4 (fun _ i ->
           mk_agg ~offered:10 ~committed:10 ~lat:[ (50_000.0, 10) ] i))
  in
  Alcotest.(check bool) "blown objective flagged" true
    (Detect.slo_burn slo slow).Detect.flagged;
  Alcotest.check_raises "invalid target"
    (Invalid_argument "Detect.slo_burn: target must be in (0, 1)") (fun () ->
      ignore (Detect.slo_burn { slo with Detect.target = 1.0 } fast))

let test_time_to_recovery () =
  let dip i = mk_agg ~offered:10 ~committed:0 i in
  let run =
    synth
      [ base; base; base; base; base; dip; dip; dip; base; base; base ]
  in
  (* Recovery = start of the first 3-window healthy streak after the
     first degraded window: w8, i.e. 3000ns past the fault at 5000. *)
  (match Detect.time_to_recovery ~after_ns:5_000.0 run with
  | Some ttr -> Alcotest.(check (float 1e-9)) "ttr" 3_000.0 ttr
  | None -> Alcotest.fail "expected recovery at window 8");
  (* A lone noisy dip after recovery does not move the answer. *)
  let noisy =
    synth
      [ base; base; base; base; base; dip; dip; dip; base; base; base; dip;
        base ]
  in
  (match Detect.time_to_recovery ~after_ns:5_000.0 noisy with
  | Some ttr ->
      Alcotest.(check (float 1e-9)) "noise-tolerant ttr" 3_000.0 ttr
  | None -> Alcotest.fail "expected recovery despite late noise");
  let never =
    synth [ base; base; base; base; base; dip; dip; dip; dip; dip ]
  in
  Alcotest.(check bool) "no recovery -> None" true
    (Option.is_none (Detect.time_to_recovery ~after_ns:5_000.0 never))

let () =
  Alcotest.run "xenic_telemetry"
    [
      ( "wclock",
        [
          Alcotest.test_case "edges" `Quick test_wclock_edges;
          Alcotest.test_case "integrate" `Quick test_wclock_integrate;
        ] );
      ( "recording",
        [
          Alcotest.test_case "hand-computed windows" `Quick
            test_windows_hand_computed;
          Alcotest.test_case "cutoff drops drain" `Quick
            test_cutoff_drops_drain;
          Alcotest.test_case "shard merge" `Quick test_shard_merge;
          Alcotest.test_case "rollup merges cells" `Quick
            test_rollup_merges_cells;
        ] );
      ( "parity",
        [
          Alcotest.test_case "six stacks, 1 vs 2 domains" `Quick
            test_parity_stacks;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "openloop drain cutoff" `Quick
            test_openloop_drain_cutoff;
          Alcotest.test_case "driver windows + ttr" `Quick
            test_driver_telemetry_and_ttr;
        ] );
      ( "openmetrics",
        [ Alcotest.test_case "validity" `Quick test_openmetrics_valid ] );
      ( "detectors",
        [
          Alcotest.test_case "retry storm" `Quick test_retry_storm;
          Alcotest.test_case "queue growth" `Quick test_queue_growth;
          Alcotest.test_case "littles law" `Quick test_littles_law;
          Alcotest.test_case "slo burn" `Quick test_slo_burn;
          Alcotest.test_case "time to recovery" `Quick test_time_to_recovery;
        ] );
    ]
