(* Tests for the time-attribution profiler: hand-computed FIFO
   wait/service accounting on a contended resource, busy-time and
   Little's-law cross-checks, same-seed byte-identical reports and
   flamegraphs across all six stacks, critical-path closure on
   Smallbank and TPC-C, and the BENCH json diff regression gate. *)

open Xenic_sim
open Xenic_proto
open Xenic_workload
module Profile = Xenic_profile.Profile
module Bench_diff = Xenic_profile.Bench_diff

(* ------------------------------------------------------------------ *)
(* Resource accounting: hand-computed FIFO contention. *)

(* Three processes contend for one server at t=0, holding 100/50/25 ns
   in spawn order. FIFO waits are 0/100/150 ns; busy time is the
   service sum (175), queue area the wait sum (250). *)
let test_fifo_accounting () =
  let eng = Engine.create () in
  Engine.set_attrib_enabled eng true;
  Engine.reset_attrib eng;
  let res = Resource.create eng ~name:"cpu" ~servers:1 in
  (* Spawn under the engine's ambient state: the first segment of each
     process (through the immediate grant) runs before [Engine.run]. *)
  Engine.with_attrib eng (fun () ->
      List.iteri
        (fun i dur ->
          Process.spawn eng (fun () ->
              Attrib.set
                { Attrib.stack = "T"; node = i; phase = "p"; cls = "c" };
              Resource.use res dur))
        [ 100.0; 50.0; 25.0 ]);
  ignore (Engine.run eng);
  let stats = Resource.stats res in
  Engine.set_attrib_enabled eng false;
  Engine.reset_attrib eng;
  Alcotest.(check int) "three contexts" 3 (List.length stats);
  List.iteri
    (fun i (want_wait, want_service) ->
      let ctx, v = List.nth stats i in
      Alcotest.(check int) "contexts ordered by node" i ctx.Attrib.node;
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "wait of process %d" i)
        want_wait v.Resource.v_wait_ns;
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "service of process %d" i)
        want_service v.Resource.v_service_ns;
      Alcotest.(check int)
        (Printf.sprintf "grants of process %d" i)
        1 v.Resource.v_services)
    [ (0.0, 100.0); (100.0, 50.0); (150.0, 25.0) ];
  Alcotest.(check (float 1e-9)) "busy time = service sum" 175.0
    (Resource.busy_time res);
  Alcotest.(check (float 1e-9)) "queue area = wait sum (Little)" 250.0
    (Resource.queue_area res)

(* Accounting is off by default: an unprofiled run records nothing. *)
let test_accounting_gated () =
  let eng = Engine.create () in
  Engine.reset_attrib eng;
  let res = Resource.create eng ~name:"cpu" ~servers:1 in
  List.iter
    (fun dur -> Process.spawn eng (fun () -> Resource.use res dur))
    [ 100.0; 50.0 ];
  ignore (Engine.run eng);
  Alcotest.(check int) "no contexts recorded" 0
    (List.length (Resource.stats res));
  Alcotest.(check (float 1e-9)) "busy time still integrates" 150.0
    (Resource.busy_time res)

(* ------------------------------------------------------------------ *)
(* Full-driver profiled runs. *)

let sb_params = { Smallbank.default_params with accounts_per_node = 50 }

(* A profiled run with its trace: the spans the profile's critical paths
   were extracted from. *)
let traced_profiled_run stack =
  let sys =
    System.create ~nodes:4 ~replication:3
      ~xenic:{ Xenic_system.default_params with cache_capacity = 512 }
      ~store_cfg:(Smallbank.store_cfg sb_params)
      ~buckets:(Smallbank.chained_buckets sb_params) stack
  in
  Smallbank.load sb_params sys;
  let trace = Trace.create sys.System.engine in
  let result =
    Driver.run ~seed:11L ~trace ~profile:true sys
      (Smallbank.spec sb_params ~nodes:4)
      ~concurrency:8 ~target:300
  in
  match result.Driver.profile with
  | Some prof -> (prof, trace)
  | None -> Alcotest.fail "profiled run returned no profile"

let profiled_run stack = fst (traced_profiled_run stack)

let rw_params = { Retwis.default_params with keys_per_node = 500 }

(* The same on the pointer-chasing multi-shot workload, whose chases
   take a second execution round: on the RDMA stacks a replay of the
   try, on Xenic a second round of the same try. *)
let traced_profiled_multishot stack =
  let sys =
    System.create ~nodes:4 ~replication:3 ~store_cfg:(Retwis.store_cfg rw_params)
      ~buckets:(Retwis.chained_buckets rw_params) stack
  in
  Retwis.load rw_params sys;
  let trace = Trace.create sys.System.engine in
  let result =
    Driver.run ~seed:11L ~trace ~profile:true sys (Multishot.spec ~nodes:4)
      ~concurrency:4 ~target:300
  in
  match result.Driver.profile with
  | Some prof -> (prof, trace)
  | None -> Alcotest.fail "profiled run returned no profile"

let profiled_tpcc_run () =
  let tp =
    {
      Tpcc.default_params with
      warehouses_per_node = 2;
      customers_per_district = 10;
      items = 200;
    }
  in
  let sys =
    System.create ~nodes:4 ~replication:3 ~store_cfg:(Tpcc.store_cfg tp)
      ~buckets:(Tpcc.chained_buckets tp) System.Xenic
  in
  Tpcc.load tp sys;
  let result =
    Driver.run ~seed:11L ~profile:true sys (Tpcc.spec tp sys) ~concurrency:8
      ~target:200
  in
  match result.Driver.profile with
  | Some prof -> prof
  | None -> Alcotest.fail "profiled run returned no profile"

let test_profile_deterministic stack () =
  let p1 = profiled_run stack in
  let p2 = profiled_run stack in
  Alcotest.(check bool) "rows nonempty" true (p1.Profile.rows <> []);
  Alcotest.(check bool) "paths nonempty" true (p1.Profile.paths <> []);
  Alcotest.(check string) "report byte-identical" (Profile.report p1)
    (Profile.report p2);
  Alcotest.(check string) "folded byte-identical" (Profile.folded p1)
    (Profile.folded p2)

(* Attributed service must repartition the resource's integrated busy
   time; attributed wait must equal the queue-length integral (Little's
   law with a drained queue). Both to within float rounding. *)
let check_accounting prof =
  List.iter
    (fun (label, busy, service) ->
      let rel = Float.abs (busy -. service) /. Float.max busy 1.0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: |busy - service|/busy = %g within 1e-6" label rel)
        true (rel <= 1e-6))
    (Profile.busy_agreement prof);
  List.iter
    (fun (label, area, wait) ->
      let rel = Float.abs (area -. wait) /. Float.max area 1.0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: |area - wait|/area = %g within 1e-6" label rel)
        true (rel <= 1e-6))
    (Profile.little_check prof)

let test_accounting_agreement stack () =
  check_accounting (profiled_run stack)

(* Critical-path segments partition the outer span by construction;
   the 0.5ns bar only allows float summation noise. *)
let check_path_closure prof =
  Alcotest.(check bool) "paths extracted" true (prof.Profile.paths <> []);
  let residual =
    List.fold_left
      (fun acc p ->
        let sum =
          List.fold_left (fun a s -> a +. s.Profile.s_dur_ns) 0.0 p.Profile.p_segs
        in
        Float.max acc (Float.abs (p.Profile.p_dur_ns -. sum)))
      0.0 prof.Profile.paths
  in
  Alcotest.(check bool)
    (Printf.sprintf "max |dur - seg sum| = %gns within 0.5ns" residual)
    true (residual <= 0.5)

let test_path_closure stack () = check_path_closure (profiled_run stack)

let test_path_closure_tpcc () = check_path_closure (profiled_tpcc_run ())

(* Eight transactions in flight per coordinator: each committed path
   must be sliced by its own attempt's phase spans. A span keyed on
   anything but the attempt's own seq lands on another transaction's
   track, and the path reads as "other"; a phase left unnamed does
   too. *)
let test_path_keys run stack () =
  let prof, trace = run stack in
  Alcotest.(check bool) "paths extracted" true (prof.Profile.paths <> []);
  let frac, blind = Profile.other_share prof in
  Alcotest.(check int) "no committed path is all other" 0 blind;
  Alcotest.(check (float 0.0)) "no committed path time is other" 0.0 frac;
  let phase_tracks = Hashtbl.create 1024 in
  let outers = ref [] in
  List.iter
    (function
      | Trace.Span { cat = "txn"; pid; tid; _ } ->
          Hashtbl.replace phase_tracks (pid, tid) ()
      | Trace.Span { cat = "txnlat"; pid; tid; _ } ->
          outers := (pid, tid) :: !outers
      | _ -> ())
    (Trace.events trace);
  let unmatched =
    List.filter (fun key -> not (Hashtbl.mem phase_tracks key)) !outers
  in
  Alcotest.(check int)
    (Printf.sprintf "txnlat spans without a txn span on their track (of %d)"
       (List.length !outers))
    0 (List.length unmatched)

(* Each attempt's "txn" spans, by track ([pid], [tid]), as
   [(ts, dur, name)] in start order. *)
let phase_spans trace =
  let phases = Hashtbl.create 1024 in
  List.iter
    (function
      | Trace.Span { cat = "txn"; pid; tid; ts; dur; name; _ } ->
          Hashtbl.replace phases (pid, tid)
            ((ts, dur, name)
            :: Option.value ~default:[] (Hashtbl.find_opt phases (pid, tid)))
      | _ -> ())
    (Trace.events trace);
  fun key ->
    List.sort compare
      (Option.value ~default:[] (Hashtbl.find_opt phases key))

(* A committed attempt's phases tile it: on its own track, its "txn"
   spans run back to back from the start of its "txnlat" span to the
   end, with no gap and no overlap beyond float rounding. An un-armed
   transaction is one attempt, drawn when the outer span starts. *)
let test_tiling run stack () =
  let _, trace = run stack in
  let phases = phase_spans trace in
  let near a b = Float.compare (Float.abs (a -. b)) 1e-6 <= 0 in
  let outers =
    List.filter_map
      (function
        | Trace.Span { cat = "txnlat"; pid; tid; ts; dur; _ } ->
            Some (pid, tid, ts, dur)
        | _ -> None)
      (Trace.events trace)
  in
  Alcotest.(check bool) "committed attempts traced" true (outers <> []);
  List.iter
    (fun (pid, tid, ts, dur) ->
      let fin =
        List.fold_left
          (fun cur (pts, pdur, name) ->
            if not (near pts cur) then
              Alcotest.failf
                "node %d attempt %d: %s starts at %.6f, not at %.6f" pid tid
                name pts cur;
            pts +. pdur)
          ts
          (phases (pid, tid))
      in
      if not (near fin (ts +. dur)) then
        Alcotest.failf "node %d attempt %d: phases end at %.6f, not at %.6f"
          pid tid fin (ts +. dur))
    outers

(* Fig 7: multi-hop OCC saves one message delay. A transact_savings
   writes one key, so on Xenic it commits locally where its coordinator
   serves the key and by multi-hop elsewhere; with multi-hop off it
   takes the distributed path there. One slot per coordinator, so no
   transaction queues behind another. Returns each committed
   transact_savings' latency and its phases' names and durations. *)
let transact_savings_paths ~multihop =
  let nodes = 6 in
  let xenic = Xenic_system.default_params in
  let sys =
    System.create ~nodes ~replication:3
      ~xenic:
        {
          xenic with
          features = { xenic.features with Features.multihop };
          cache_capacity = 512;
        }
      ~store_cfg:(Smallbank.store_cfg sb_params)
      ~buckets:(Smallbank.chained_buckets sb_params) System.Xenic
  in
  Smallbank.load sb_params sys;
  let trace = Trace.create sys.System.engine in
  ignore
    (Driver.run ~seed:11L ~trace sys
       (Smallbank.spec sb_params ~nodes)
       ~concurrency:1 ~target:2000);
  let phases = phase_spans trace in
  List.filter_map
    (function
      | Trace.Span { cat = "txnlat"; pid; tid; dur; args; _ }
        when List.assoc_opt "cls" args = Some "transact_savings" ->
          Some
            (dur, List.map (fun (_, d, name) -> (name, d)) (phases (pid, tid)))
      | _ -> None)
    (Trace.events trace)

let test_fig7_multihop_saving () =
  let mean paths =
    List.fold_left (fun acc (dur, _) -> acc +. dur) 0.0 paths
    /. float_of_int (List.length paths)
  in
  let on = transact_savings_paths ~multihop:true in
  let off = transact_savings_paths ~multihop:false in
  let wire = Xenic_params.Hw.testbed.wire_latency_ns in
  Alcotest.(check bool)
    (Printf.sprintf
       "mean path %.0f ns with multi-hop, %.0f ns without: shorter by at \
        least the %.0f ns wire latency"
       (mean on) (mean off) wire)
    true
    (Float.compare (mean off -. mean on) wire >= 0);
  let local = [ "execute"; "validate"; "log"; "commit" ] in
  let multihop =
    List.filter (fun (_, segs) -> List.map fst segs <> local) on
  in
  Alcotest.(check bool) "multi-hop paths committed" true (multihop <> []);
  (* Shipping the execution to P2 crosses the wire, so a path whose
     execute segment is shorter counted P2's work as LOG. *)
  List.iter
    (fun (_, segs) ->
      Alcotest.(check (list string))
        "a multi-hop path's phases"
        [ "execute"; "log"; "commit" ]
        (List.map fst segs);
      Alcotest.(check bool)
        "execute covers the shipment to P2 and its execution" true
        (Float.compare (List.assoc "execute" segs) wire >= 0))
    multihop

(* Folded output: sorted lines of exactly six ;-frames plus a positive
   integer weight — the contract flamegraph renderers rely on. *)
let test_folded_format () =
  let prof = profiled_run System.Xenic in
  let lines =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n' (Profile.folded prof))
  in
  Alcotest.(check bool) "folded nonempty" true (lines <> []);
  List.iter
    (fun l ->
      match String.rindex_opt l ' ' with
      | None -> Alcotest.fail ("no weight separator: " ^ l)
      | Some i ->
          (match
             int_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
           with
          | Some n ->
              Alcotest.(check bool) ("positive weight: " ^ l) true (n > 0)
          | None -> Alcotest.fail ("non-integer weight: " ^ l));
          let frames = String.split_on_char ';' (String.sub l 0 i) in
          Alcotest.(check int) ("six frames: " ^ l) 6 (List.length frames))
    lines;
  Alcotest.(check bool) "lines sorted" true
    (List.equal String.equal lines (List.sort String.compare lines))

(* ------------------------------------------------------------------ *)
(* bench diff: the BENCH_*.json regression gate. *)

let test_diff_identical () =
  let m = [ ("tput", Some 100.0); ("lat", Some 2.5); ("nan", None) ] in
  let f = Bench_diff.diff ~tol:0.05 m m in
  Alcotest.(check int) "all keys compared" 3 (List.length f);
  Alcotest.(check bool) "identical inputs pass" false (Bench_diff.regressed f)

let test_diff_regression () =
  let a = [ ("tput", Some 100.0); ("lat", Some 2.5) ] in
  let b = [ ("tput", Some 110.0); ("lat", Some 2.5) ] in
  let f = Bench_diff.diff ~tol:0.05 a b in
  Alcotest.(check bool) "10%% delta out of 5%% tol" true
    (Bench_diff.regressed f);
  let bad = List.filter (fun x -> x.Bench_diff.out_of_tol) f in
  (match bad with
  | [ x ] ->
      Alcotest.(check string) "only tput flagged" "tput" x.Bench_diff.key;
      (match x.Bench_diff.rel with
      | Some r -> Alcotest.(check (float 1e-9)) "relative delta" 0.1 r
      | None -> Alcotest.fail "expected a relative delta")
  | _ -> Alcotest.fail "expected exactly one out-of-tolerance metric");
  Alcotest.(check bool) "10%% delta within 20%% tol" false
    (Bench_diff.regressed (Bench_diff.diff ~tol:0.2 a b))

let test_diff_presence () =
  let a = [ ("only a", Some 1.0); ("both", Some 2.0) ] in
  let b = [ ("both", Some 2.0); ("only b", Some 3.0) ] in
  let f = Bench_diff.diff ~tol:0.05 a b in
  Alcotest.(check int) "union of keys" 3 (List.length f);
  Alcotest.(check bool) "one-sided keys regress" true (Bench_diff.regressed f);
  List.iter
    (fun x ->
      Alcotest.(check bool) x.Bench_diff.key
        (x.Bench_diff.key <> "both")
        x.Bench_diff.out_of_tol)
    f;
  (* A zero reference compares by exact equality, not relative delta. *)
  let z = Bench_diff.diff ~tol:0.05 [ ("z", Some 0.0) ] [ ("z", Some 0.0) ] in
  Alcotest.(check bool) "zero vs zero passes" false (Bench_diff.regressed z);
  let z' = Bench_diff.diff ~tol:0.05 [ ("z", Some 0.0) ] [ ("z", Some 1.0) ] in
  Alcotest.(check bool) "zero vs nonzero regresses" true
    (Bench_diff.regressed z')

(* ignore_prefixes drops machine-dependent keys (wall-clock timings)
   from both sides so a tol=0 gate can byte-check the rest. *)
let test_diff_ignore_prefixes () =
  let a = [ ("tput", Some 100.0); ("wallclock sim speedup", Some 1.38) ] in
  let b = [ ("tput", Some 100.0); ("wallclock sim speedup", Some 1.51) ] in
  Alcotest.(check bool) "wallclock delta trips a tol=0 gate" true
    (Bench_diff.regressed (Bench_diff.diff ~tol:0.0 a b));
  let f = Bench_diff.diff ~ignore_prefixes:[ "wallclock" ] ~tol:0.0 a b in
  Alcotest.(check bool) "ignored prefix passes the gate" false
    (Bench_diff.regressed f);
  Alcotest.(check (list string))
    "ignored keys absent from findings" [ "tput" ]
    (List.map (fun x -> x.Bench_diff.key) f);
  (* A key ignored on one side is ignored on the other too: no phantom
     one-sided finding. *)
  let f' =
    Bench_diff.diff ~ignore_prefixes:[ "wallclock" ] ~tol:0.0 a
      [ ("tput", Some 100.0) ]
  in
  Alcotest.(check bool) "one-sided ignored key is not a finding" false
    (Bench_diff.regressed f')

(* Round-trip through the exact file shape bench/common.ml emits. *)
let test_diff_parse () =
  let path = Filename.temp_file "bench_diff" ".json" in
  let oc = open_out path in
  output_string oc
    "{\n\
    \  \"experiment\": \"t\",\n\
    \  \"description\": \"d\",\n\
    \  \"metrics\": {\n\
    \    \"xenic tput\": 123456,\n\
    \    \"drtmh p99 us\": 12.5,\n\
    \    \"farm residual\": null\n\
    \  }\n\
     }\n";
  close_out oc;
  let m = Bench_diff.load_metrics path in
  Sys.remove path;
  Alcotest.(check int) "three metrics" 3 (List.length m);
  Alcotest.(check (option (float 1e-9))) "int value" (Some 123456.0)
    (List.assoc "xenic tput" m);
  Alcotest.(check (option (float 1e-9))) "float value" (Some 12.5)
    (List.assoc "drtmh p99 us" m);
  Alcotest.(check (option (float 1e-9))) "null value" None
    (List.assoc "farm residual" m)

(* A type-corrupted metrics file (a string where a number belongs) is a
   shape error, not a regression: it must fail loudly and the message
   must name the offending key. *)
let test_diff_parse_bad_type () =
  let path = Filename.temp_file "bench_diff" ".json" in
  let oc = open_out path in
  output_string oc
    "{\n\
    \  \"experiment\": \"t\",\n\
    \  \"description\": \"d\",\n\
    \  \"metrics\": {\n\
    \    \"xenic tput\": \"fast\"\n\
    \  }\n\
     }\n";
  close_out oc;
  let got =
    match Bench_diff.load_metrics path with
    | _ -> None
    | exception Failure e -> Some e
  in
  Sys.remove path;
  match got with
  | None -> Alcotest.fail "expected Failure on a non-numeric metric value"
  | Some e ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        m = 0 || go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "message names the key (%s)" e)
        true
        (contains e "xenic tput")

(* Every resource a stack reports does work: on a short Smallbank run,
   each resource kind (its label without the node digits) is busy for
   some time. A pool that nothing acquires would report an idle row in
   every profile. *)
let test_every_resource_busy stack () =
  let sys =
    System.create ~nodes:4 ~replication:3
      ~store_cfg:(Smallbank.store_cfg sb_params)
      ~buckets:(Smallbank.chained_buckets sb_params) stack
  in
  Smallbank.load sb_params sys;
  ignore
    (Driver.run ~seed:11L sys (Smallbank.spec sb_params ~nodes:4)
       ~concurrency:8 ~target:800);
  let kind label =
    String.to_seq label
    |> Seq.filter (fun c -> not (c >= '0' && c <= '9'))
    |> String.of_seq
  in
  let busy = Hashtbl.create 16 in
  List.iter
    (fun (label, r) ->
      let k = kind label in
      Hashtbl.replace busy k
        (Resource.busy_time r +. Option.value ~default:0.0 (Hashtbl.find_opt busy k)))
    (sys.System.resources ());
  Hashtbl.fold (fun k t acc -> (k, t) :: acc) busy []
  |> List.sort compare
  |> List.iter (fun (k, t) ->
         Alcotest.(check bool) (Printf.sprintf "%s is busy" k) true (t > 0.0))

(* [check run stack] on every stack, on Smallbank and then on the
   multi-shot workload. *)
let on_both_workloads check =
  List.map
    (fun stack ->
      Alcotest.test_case (System.stack_name stack) `Quick
        (check traced_profiled_run stack))
    System.stacks
  @ List.map
      (fun stack ->
        Alcotest.test_case (System.stack_name stack ^ " multi-shot") `Quick
          (check traced_profiled_multishot stack))
      System.stacks

let () =
  Alcotest.run "xenic_profile"
    [
      ( "resource",
        [
          Alcotest.test_case "fifo accounting" `Quick test_fifo_accounting;
          Alcotest.test_case "gated when disabled" `Quick test_accounting_gated;
        ] );
      ( "determinism",
        List.map
          (fun stack ->
            Alcotest.test_case (System.stack_name stack) `Quick
              (test_profile_deterministic stack))
          System.stacks );
      ( "accounting",
        [
          Alcotest.test_case "xenic" `Quick
            (test_accounting_agreement System.Xenic);
          Alcotest.test_case "drtmh" `Quick
            (test_accounting_agreement System.Drtmh);
        ] );
      ( "critical-path",
        [
          Alcotest.test_case "smallbank xenic" `Quick
            (test_path_closure System.Xenic);
          Alcotest.test_case "smallbank drtmh" `Quick
            (test_path_closure System.Drtmh);
          Alcotest.test_case "tpcc xenic" `Quick test_path_closure_tpcc;
        ] );
      ("path keys", on_both_workloads test_path_keys);
      ("tiling", on_both_workloads test_tiling);
      ( "fig7",
        [
          Alcotest.test_case "multi-hop saves a message delay" `Quick
            test_fig7_multihop_saving;
        ] );
      ( "busy",
        List.map
          (fun stack ->
            Alcotest.test_case (System.stack_name stack) `Quick
              (test_every_resource_busy stack))
          System.stacks );
      ( "folded",
        [ Alcotest.test_case "format" `Quick test_folded_format ] );
      ( "bench-diff",
        [
          Alcotest.test_case "identical" `Quick test_diff_identical;
          Alcotest.test_case "regression" `Quick test_diff_regression;
          Alcotest.test_case "presence and zero" `Quick test_diff_presence;
          Alcotest.test_case "ignore prefixes" `Quick test_diff_ignore_prefixes;
          Alcotest.test_case "file parse" `Quick test_diff_parse;
          Alcotest.test_case "non-numeric value names key" `Quick
            test_diff_parse_bad_type;
        ] );
    ]
