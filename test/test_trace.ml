(* Tests for the execution-trace subsystem: buffer semantics, Chrome
   JSON export, sampler lifecycle, same-seed byte-identical traces
   through the full driver, and abort-reason taxonomy coverage across
   all protocol stacks. *)

open Xenic_sim
open Xenic_proto
open Xenic_workload

(* ------------------------------------------------------------------ *)
(* Trace buffer + export *)

let test_trace_buffer_order () =
  let eng = Engine.create () in
  let tr = Trace.create eng in
  Trace.span tr ~cat:"txn" ~name:"execute" ~pid:0 ~tid:1 ~ts:10.0 ~dur:5.0 ();
  Trace.instant tr ~cat:"recovery" ~name:"crash" ~pid:2 ~tid:0 ();
  Trace.counter tr ~name:"nic" ~pid:0 ~values:[ ("value", 0.5) ];
  Alcotest.(check int) "count" 3 (Trace.count tr);
  (match Trace.events tr with
  | [ Trace.Span s; Trace.Instant i; Trace.Counter c ] ->
      Alcotest.(check string) "span name" "execute" s.name;
      Alcotest.(check (float 1e-9)) "span dur" 5.0 s.dur;
      Alcotest.(check string) "instant name" "crash" i.name;
      Alcotest.(check string) "counter name" "nic" c.name
  | _ -> Alcotest.fail "unexpected event shapes/order");
  let json = Trace.to_chrome_json tr in
  List.iter
    (fun sub ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("json contains " ^ sub) true (contains json sub))
    [ "\"traceEvents\""; "\"ph\":\"X\""; "\"ph\":\"i\""; "\"ph\":\"C\"";
      "\"execute\"" ]

let test_trace_limit () =
  let eng = Engine.create () in
  let tr = Trace.create ~limit:2 eng in
  for i = 1 to 5 do
    Trace.instant tr ~cat:"t" ~name:(string_of_int i) ~pid:0 ~tid:0 ()
  done;
  Alcotest.(check int) "kept" 2 (Trace.count tr);
  Alcotest.(check int) "dropped" 3 (Trace.dropped tr);
  (* The kept events are the first two, in order. *)
  match Trace.events tr with
  | [ Trace.Instant a; Trace.Instant b ] ->
      Alcotest.(check string) "first" "1" a.name;
      Alcotest.(check string) "second" "2" b.name
  | _ -> Alcotest.fail "unexpected retained events"

let test_trace_sampler () =
  let eng = Engine.create () in
  let tr = Trace.create eng in
  let gauge = ref 0.0 in
  let stop =
    Trace.sampler tr ~period_ns:100.0 ~pid:0
      ~sources:[ ("g", fun () -> !gauge) ]
  in
  Engine.after eng 250.0 (fun () -> gauge := 3.0);
  Engine.after eng 450.0 (fun () -> stop ());
  (* The sampler must not keep the engine alive once stopped. *)
  ignore (Engine.run eng);
  let samples =
    List.filter_map
      (function
        | Trace.Counter { values = [ ("value", v) ]; _ } -> Some v
        | _ -> None)
      (Trace.events tr)
  in
  Alcotest.(check bool)
    (Printf.sprintf "a handful of samples (%d)" (List.length samples))
    true
    (List.length samples >= 4 && List.length samples <= 7);
  Alcotest.(check bool) "gauge change observed" true
    (List.exists (fun v -> v > 2.0) samples)

(* Regression for the open-loop accounting cutoff: a sampler armed with
   [?until_ns] must stop ticking at the cutoff instead of sampling
   through the post-schedule drain. *)
let test_trace_sampler_cutoff () =
  let eng = Engine.create () in
  let tr = Trace.create eng in
  let stop =
    Trace.sampler tr ~until_ns:300.0 ~period_ns:100.0 ~pid:0
      ~sources:[ ("g", fun () -> 1.0) ]
  in
  (* Keep the engine running well past the cutoff; the sampler must
     retire itself rather than rely on [stop]. *)
  Engine.after eng 2_000.0 (fun () -> ());
  ignore (Engine.run eng);
  stop ();
  (* Ticks at t = 0, 100, 200, 300 sample; the 400 tick is past the
     cutoff and neither samples nor reschedules. *)
  Alcotest.(check int) "samples stop at the cutoff" 4 (Trace.count tr)

(* ------------------------------------------------------------------ *)
(* Full-stack determinism + taxonomy *)

let sb_params = { Smallbank.default_params with accounts_per_node = 50 }

let mk stack =
  System.create ~nodes:4 ~replication:3
    ~xenic:{ Xenic_system.default_params with cache_capacity = 512 }
    ~store_cfg:(Smallbank.store_cfg sb_params)
    ~buckets:(Smallbank.chained_buckets sb_params) stack

let traced_run stack =
  let sys = mk stack in
  Smallbank.load sb_params sys;
  let tr = Trace.create sys.System.engine in
  ignore
    (Driver.run ~seed:11L sys
       (Smallbank.spec sb_params ~nodes:4)
       ~trace:tr ~concurrency:8 ~target:300);
  (tr, sys)

(* A full driver run into an undersized buffer must saturate the limit
   and surface the overflow through [Trace.dropped] — the signal the
   CLI and the trace experiment warn on. *)
let test_trace_driver_overflow () =
  let sys = mk System.Xenic in
  Smallbank.load sb_params sys;
  let tr = Trace.create ~limit:64 sys.System.engine in
  ignore
    (Driver.run ~seed:11L sys
       (Smallbank.spec sb_params ~nodes:4)
       ~trace:tr ~concurrency:8 ~target:300);
  Alcotest.(check int) "kept exactly the limit" 64 (Trace.count tr);
  Alcotest.(check bool) "overflow counted" true (Trace.dropped tr > 0)

let test_trace_deterministic stack () =
  let tr1, _ = traced_run stack in
  let tr2, _ = traced_run stack in
  Alcotest.(check bool) "trace nonempty" true (Trace.count tr1 > 0);
  Alcotest.(check bool) "same-seed traces byte-identical" true
    (String.equal (Trace.to_chrome_json tr1) (Trace.to_chrome_json tr2))

(* Every abort the driver observes must carry exactly one taxonomy
   reason — no "unknown" bucket exists, and counts must balance. *)
let test_taxonomy_covers stack () =
  let _, sys = traced_run stack in
  let m = sys.System.metrics () in
  let reasons =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Metrics.abort_reason_counts m)
  in
  Alcotest.(check int)
    (Printf.sprintf "%s: reasons sum to aborted count" sys.System.name)
    (Metrics.aborted m) reasons;
  (* Phase histograms must be populated for the core commit phases. *)
  let phases = List.map fst (Metrics.phase_stats m) in
  List.iter
    (fun ph ->
      Alcotest.(check bool) (ph ^ " phase recorded") true (List.mem ph phases))
    [ "execute"; "log"; "commit" ]

let () =
  Alcotest.run "xenic_trace"
    [
      ( "buffer",
        [
          Alcotest.test_case "order" `Quick test_trace_buffer_order;
          Alcotest.test_case "limit" `Quick test_trace_limit;
          Alcotest.test_case "sampler" `Quick test_trace_sampler;
          Alcotest.test_case "sampler cutoff" `Quick
            test_trace_sampler_cutoff;
          Alcotest.test_case "driver overflow" `Quick
            test_trace_driver_overflow;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "xenic" `Quick
            (test_trace_deterministic System.Xenic);
          Alcotest.test_case "drtmh" `Quick
            (test_trace_deterministic System.Drtmh);
        ] );
      ( "taxonomy",
        List.map
          (fun stack ->
            Alcotest.test_case (System.stack_name stack) `Quick
              (test_taxonomy_covers stack))
          System.stacks );
    ]
