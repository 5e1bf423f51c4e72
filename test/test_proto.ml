(* Unit tests for protocol building blocks: types, wire sizes, metrics,
   features, and the shared protocol core's commit point, audit and
   request shell. *)

open Xenic_cluster
open Xenic_proto

let k ~shard ~id = Keyspace.make ~shard ~table:0 ~ordered:false ~id

let test_txn_sets () =
  let a = k ~shard:0 ~id:1 and b = k ~shard:1 ~id:2 and c = k ~shard:0 ~id:3 in
  let txn = Types.make ~read_set:[ a; b ] ~write_set:[ b; c ] (fun _ -> []) in
  Alcotest.(check (list int)) "validate set = reads - writes" [ a ]
    (Types.validate_set txn);
  Alcotest.(check (list int)) "shards" [ 0; 1 ] (Types.shards txn);
  Alcotest.(check (option int)) "not single shard" None (Types.single_shard txn);
  let local = Types.make ~read_set:[ a ] ~write_set:[ c ] (fun _ -> []) in
  Alcotest.(check (option int)) "single shard" (Some 0) (Types.single_shard local)

let test_group_by_shard () =
  let a = k ~shard:2 ~id:1 and b = k ~shard:0 ~id:2 and c = k ~shard:2 ~id:3 in
  let d = k ~shard:0 ~id:4 in
  Alcotest.(check (list (pair int (list int))))
    "shards ascending, input order kept"
    [ (0, [ b; d ]); (2, [ a; c ]) ]
    (Types.group_by_shard Fun.id [ a; b; c; d ]);
  Alcotest.(check (list (pair int (list (pair int string)))))
    "by key"
    [ (0, [ (d, "d") ]); (2, [ (c, "c"); (a, "a") ]) ]
    (Types.group_by_shard fst [ (c, "c"); (d, "d"); (a, "a") ])

let test_wire_sizes () =
  Alcotest.(check bool) "execute grows with keys" true
    (Wire.execute_req_b ~n_reads:4 ~n_locks:2 ~state_bytes:0
    > Wire.execute_req_b ~n_reads:1 ~n_locks:0 ~state_bytes:0);
  let ops = [ Op.Put (k ~shard:0 ~id:1, Bytes.create 64) ] in
  Alcotest.(check bool) "log record bigger than ops" true
    (Wire.log_record_b ~ops > Wire.write_ops_b ~ops);
  Alcotest.(check int) "put op bytes" (8 + 8 + 64) (Op.bytes (List.hd ops));
  Alcotest.(check bool) "resp includes values" true
    (Wire.execute_resp_b ~value_bytes:[ 64; 64 ] > Wire.execute_resp_b ~value_bytes:[ 0 ])

let test_metrics () =
  let m = Metrics.create () in
  Metrics.record m ~latency_ns:1000.0 Types.Committed;
  Metrics.record m ~latency_ns:2000.0 Types.Committed;
  Metrics.record m ~latency_ns:9999.0 Types.Aborted;
  Alcotest.(check int) "committed" 2 (Metrics.committed m);
  Alcotest.(check int) "aborted" 1 (Metrics.aborted m);
  Alcotest.(check bool) "abort rate" true (abs_float (Metrics.abort_rate m -. (1.0 /. 3.0)) < 1e-9);
  Metrics.record_class m ~cls:"x" ~latency_ns:500.0 Types.Committed;
  Alcotest.(check int) "class count" 1 (Metrics.committed_class m ~cls:"x");
  let m2 = Metrics.create () in
  Metrics.record m2 ~latency_ns:3000.0 Types.Committed;
  Metrics.merge ~into:m m2;
  Alcotest.(check int) "merged" 4 (Metrics.committed m)

let test_metrics_abort_accounting () =
  (* Regression: aborted attempts must feed the abort-latency histogram
     and per-class abort counts — they used to be dropped entirely. *)
  let m = Metrics.create () in
  Metrics.record m ~latency_ns:4_000.0 Types.Aborted;
  Metrics.record m ~latency_ns:5_000.0 Types.Aborted;
  Metrics.record m ~latency_ns:6_000.0 Types.Aborted;
  Alcotest.(check (float 200.0))
    "median abort latency" 5_000.0 (Metrics.median_abort_latency m);
  Alcotest.(check bool)
    "abort p0 >= min" true
    (Metrics.abort_latency_quantile m 0.0 >= 4_000.0 *. 0.97);
  Metrics.record_class m ~cls:"pay" ~latency_ns:1_000.0 Types.Aborted;
  Metrics.record_class m ~cls:"pay" ~latency_ns:1_000.0 Types.Committed;
  Alcotest.(check int) "class aborts" 1 (Metrics.aborted_class m ~cls:"pay");
  Alcotest.(check int) "class commits" 1 (Metrics.committed_class m ~cls:"pay")

let test_metrics_abort_reasons () =
  let m = Metrics.create () in
  Metrics.record_abort_reason m Metrics.Lock_conflict;
  Metrics.record_abort_reason m Metrics.Lock_conflict;
  Metrics.record_abort_reason m Metrics.Stale_epoch;
  Alcotest.(check int) "lock-conflict" 2
    (Metrics.abort_reason_count m Metrics.Lock_conflict);
  Alcotest.(check int) "stale-epoch" 1
    (Metrics.abort_reason_count m Metrics.Stale_epoch);
  Alcotest.(check int) "timeout" 0
    (Metrics.abort_reason_count m Metrics.Timeout);
  Alcotest.(check (list string))
    "fixed reporting order"
    [ "lock-conflict"; "validation-failure"; "timeout"; "stale-epoch";
      "crashed-owner"; "shed" ]
    (List.map fst (Metrics.abort_reason_counts m));
  (* Reasons, class counts and phase histograms survive a merge. *)
  let m2 = Metrics.create () in
  Metrics.record_abort_reason m2 Metrics.Timeout;
  Metrics.record_phase m2 ~phase:"execute" 1_000.0;
  Metrics.record_phase m2 ~phase:"execute" 3_000.0;
  Metrics.merge ~into:m m2;
  Alcotest.(check int) "merged timeout" 1
    (Metrics.abort_reason_count m Metrics.Timeout);
  Alcotest.(check int) "merged lock-conflict" 2
    (Metrics.abort_reason_count m Metrics.Lock_conflict);
  (match Metrics.phase_stats m with
  | [ ("execute", h) ] ->
      Alcotest.(check int) "merged phase samples" 2
        (Xenic_stats.Histogram.count h)
  | other ->
      Alcotest.failf "expected one execute phase, got %d"
        (List.length other));
  Metrics.clear m;
  Alcotest.(check int) "cleared reasons" 0
    (Metrics.abort_reason_count m Metrics.Lock_conflict);
  Alcotest.(check (list string)) "cleared phases" []
    (List.map fst (Metrics.phase_stats m))

let test_features_ladders () =
  Alcotest.(check int) "fig9a steps" 4 (List.length Features.fig9a_steps);
  Alcotest.(check int) "fig9b steps" 4 (List.length Features.fig9b_steps);
  let first = snd (List.hd Features.fig9a_steps) in
  Alcotest.(check bool) "baseline disables smart ops" false first.Features.smart_ops;
  let last = snd (List.nth Features.fig9a_steps 3) in
  Alcotest.(check bool) "last step enables async dma" true last.Features.async_dma

let test_admission_capacity () =
  let a =
    Admission.create
      { Admission.capacity = 2; backpressure = infinity; deadline_ns = infinity }
  in
  Alcotest.(check bool) "1st admitted" true
    (Admission.offer a ~occupancy:0.0 = Ok ());
  Alcotest.(check bool) "2nd admitted" true
    (Admission.offer a ~occupancy:0.0 = Ok ());
  Alcotest.(check bool) "3rd shed on depth" true
    (Admission.offer a ~occupancy:0.0 = Error Admission.Queue_full);
  Alcotest.(check int) "depth" 2 (Admission.depth a);
  Admission.finish a;
  Alcotest.(check bool) "slot freed" true
    (Admission.offer a ~occupancy:0.0 = Ok ());
  Alcotest.(check int) "offered" 4 (Admission.offered a);
  Alcotest.(check int) "admitted" 3 (Admission.admitted a);
  Alcotest.(check int) "queue_full sheds" 1
    (Admission.shed_count a Admission.Queue_full)

let test_admission_backpressure () =
  let a =
    Admission.create
      { Admission.capacity = 10; backpressure = 1.0; deadline_ns = infinity }
  in
  Alcotest.(check bool) "below threshold admitted" true
    (Admission.offer a ~occupancy:0.99 = Ok ());
  Alcotest.(check bool) "at threshold shed" true
    (Admission.offer a ~occupancy:1.0 = Error Admission.Backpressure);
  Alcotest.(check bool) "above threshold shed" true
    (Admission.offer a ~occupancy:3.5 = Error Admission.Backpressure);
  (* Depth still checked first. *)
  Alcotest.(check int) "depth unchanged by sheds" 1 (Admission.depth a);
  Alcotest.(check int) "backpressure sheds" 2
    (Admission.shed_count a Admission.Backpressure)

let test_admission_deadline () =
  let a =
    Admission.create
      { Admission.capacity = 4; backpressure = infinity; deadline_ns = 100.0 }
  in
  ignore (Admission.offer a ~occupancy:0.0);
  ignore (Admission.offer a ~occupancy:0.0);
  Alcotest.(check bool) "fresh request kept" false
    (Admission.drop_expired a ~waited_ns:99.0);
  Alcotest.(check int) "depth kept" 2 (Admission.depth a);
  Alcotest.(check bool) "stale request dropped" true
    (Admission.drop_expired a ~waited_ns:100.0);
  Alcotest.(check int) "depth released" 1 (Admission.depth a);
  Alcotest.(check int) "deadline sheds" 1
    (Admission.shed_count a Admission.Deadline);
  Alcotest.(check int) "shed total" 1 (Admission.shed_total a)

let test_admission_unlimited () =
  let a = Admission.create Admission.unlimited in
  for _ = 1 to 1_000 do
    Alcotest.(check bool) "always admitted" true
      (Admission.offer a ~occupancy:1e9 = Ok ())
  done;
  Alcotest.(check bool) "never dropped" false
    (Admission.drop_expired a ~waited_ns:1e18);
  Alcotest.(check int) "no sheds" 0 (Admission.shed_total a)

let test_admission_invalid () =
  Alcotest.check_raises "capacity"
    (Invalid_argument "Admission.create: capacity") (fun () ->
      ignore
        (Admission.create
           { Admission.capacity = 0; backpressure = infinity; deadline_ns = infinity }));
  Alcotest.check_raises "backpressure"
    (Invalid_argument "Admission.create: backpressure") (fun () ->
      ignore
        (Admission.create
           { Admission.capacity = 1; backpressure = 0.0; deadline_ns = infinity }));
  Alcotest.check_raises "deadline"
    (Invalid_argument "Admission.create: deadline_ns") (fun () ->
      ignore
        (Admission.create
           { Admission.capacity = 1; backpressure = infinity; deadline_ns = 0.0 }))

(* The windowed contract (partitions > 0): epoch, fence, liveness and
   trace state is shared by every partition, so arming, membership and
   tracing are refused up front — on both stacks. *)
let windowed_cfg = Config.make ~nodes:4 ~replication:3

let windowed_xenic req_timeout_ns =
  Xenic_system.create (Xenic_sim.Engine.create ()) Xenic_params.Hw.testbed
    windowed_cfg
    { Xenic_system.default_params with partitions = 2; req_timeout_ns }

let windowed_drtmh req_timeout_ns =
  Rdma_system.create (Xenic_sim.Engine.create ()) Xenic_params.Hw.testbed
    windowed_cfg Rdma_system.Drtmh
    { Rdma_system.default_params with partitions = 2; req_timeout_ns }

let test_windowed_rejects_armed () =
  let err =
    Invalid_argument "Control.create: a windowed system cannot arm req_timeout_ns"
  in
  Alcotest.check_raises "xenic" err (fun () ->
      ignore (windowed_xenic (Some 1_000_000.0)));
  Alcotest.check_raises "drtmh" err (fun () ->
      ignore (windowed_drtmh (Some 1_000_000.0)))

let test_windowed_rejects_membership () =
  let err =
    Invalid_argument
      "Control.attach_membership: a windowed system cannot attach membership"
  in
  let membership ctl =
    Membership.create ctl.Control.engine windowed_cfg ~lease_ns:100_000.0
  in
  let x = windowed_xenic None in
  Alcotest.check_raises "xenic" err (fun () ->
      Xenic_system.attach_membership x (membership (Xenic_system.control x)));
  let r = windowed_drtmh None in
  Alcotest.check_raises "drtmh" err (fun () ->
      Rdma_system.attach_membership r (membership (Rdma_system.control r)))

let test_windowed_rejects_trace () =
  let err =
    Invalid_argument "Control.set_trace: a windowed system cannot be traced"
  in
  List.iter
    (fun (name, ctl) ->
      let trace = Xenic_sim.Trace.create ctl.Control.engine in
      Alcotest.check_raises name err (fun () ->
          Control.set_trace ctl (Some trace));
      (* Detaching stays legal. *)
      Control.set_trace ctl None)
    [
      ("xenic", Xenic_system.control (windowed_xenic None));
      ("drtmh", Rdma_system.control (windowed_drtmh None));
    ]

(* {2 The shared commit point and audit, with fake transports} *)

let mk_control ?strict ?req_timeout_ns () =
  let engine = Xenic_sim.Engine.create ?strict () in
  let ctl =
    Control.create engine Xenic_params.Hw.testbed windowed_cfg ~stack:"T"
      ~partitions:0 ~req_timeout_ns
  in
  (engine, ctl)

(* Run [f] as a process to completion; return its result. *)
let in_process engine f =
  let r = ref None in
  Xenic_sim.Process.spawn engine (fun () -> r := Some (f ()));
  ignore (Xenic_sim.Engine.run engine);
  Option.get !r

let counter ctl name =
  Option.value ~default:0.0
    (List.assoc_opt name
       (Xenic_stats.Counter.to_list (Metrics.counters (Control.metrics ctl))))

let attempt_t =
  Alcotest.testable
    (fun fmt (a : Control.attempt) ->
      Format.pp_print_string fmt
        (match a with
        | `Committed -> "committed"
        | `Aborted r -> "aborted " ^ Metrics.abort_reason_name r
        | `Retry r -> "retry " ^ Metrics.abort_reason_name r))
    ( = )

(* Fake transport: records which closures ran and the decision [log]
   was handed; [on_log] runs inside [log]. *)
let fake_commit_point ?(on_log = ignore) engine ctl =
  let decision = ref None and committed = ref false and aborted = ref false in
  let result =
    in_process engine (fun () ->
        Control.commit_point ctl ~src:0 ~epoch0:0
          ~mark:(fun _ t -> t)
          ~t_prev:0.0
          ~log:(fun d ->
            decision := Some d;
            on_log ())
          ~commit:(fun _ -> committed := true)
          ~abort:(fun () -> aborted := true))
  in
  (result, Option.map ( ! ) !decision, !committed, !aborted)

let decision_t =
  Alcotest.testable
    (fun fmt (d : Control.decision) ->
      Format.pp_print_string fmt
        (match d with Dpending -> "pending" | Dcommit -> "commit" | Dabort -> "abort"))
    ( = )

let test_commit_point_unarmed () =
  let engine, ctl = mk_control () in
  let result, decision, committed, aborted = fake_commit_point engine ctl in
  Alcotest.check attempt_t "committed" `Committed result;
  Alcotest.(check (option decision_t)) "record born decided"
    (Some Control.Dcommit) decision;
  Alcotest.(check bool) "commit ran" true committed;
  Alcotest.(check bool) "abort did not run" false aborted

let test_commit_point_fence_refused () =
  let engine, ctl = mk_control ~req_timeout_ns:40_000.0 () in
  ctl.Control.epoch <- 1;
  let result, decision, committed, aborted = fake_commit_point engine ctl in
  Alcotest.check attempt_t "retry on a stale epoch"
    (`Retry Metrics.Stale_epoch) result;
  Alcotest.(check bool) "abort ran" true aborted;
  Alcotest.(check bool) "log did not run" true (decision = None);
  Alcotest.(check bool) "commit did not run" false committed;
  Alcotest.(check (float 0.0)) "one fence refusal" 1.0
    (counter ctl "fence_refusals");
  Alcotest.(check int) "fence not held" 0 ctl.Control.inflight_commits

let test_commit_point_crash_mid_log () =
  let engine, ctl = mk_control ~req_timeout_ns:40_000.0 () in
  let result, decision, committed, aborted =
    fake_commit_point engine ctl ~on_log:(fun () ->
        Alcotest.(check int) "fence held during LOG" 1
          ctl.Control.inflight_commits;
        Control.crash_node ctl ~node:0)
  in
  Alcotest.check attempt_t "crashed owner"
    (`Aborted Metrics.Crashed_owner) result;
  Alcotest.(check (option decision_t)) "decision aborted"
    (Some Control.Dabort) decision;
  Alcotest.(check bool) "commit did not run" false committed;
  Alcotest.(check bool) "abort did not run" false aborted;
  Alcotest.(check int) "fence released" 0 ctl.Control.inflight_commits

let test_commit_point_armed_commit () =
  let engine, ctl = mk_control ~req_timeout_ns:40_000.0 () in
  let result, decision, committed, _ = fake_commit_point engine ctl in
  Alcotest.check attempt_t "committed" `Committed result;
  Alcotest.(check (option decision_t)) "decision committed"
    (Some Control.Dcommit) decision;
  Alcotest.(check bool) "commit ran" true committed;
  Alcotest.(check int) "fence released" 0 ctl.Control.inflight_commits

let test_audit () =
  let engine, ctl = mk_control () in
  let logs =
    Array.init 4 (fun _ -> Xenic_store.Hostlog.create engine ~capacity_b:4096)
  in
  (* An undrained record at nodes 0 and 1; node 1 then crashes. *)
  in_process engine (fun () ->
      List.iter
        (fun n ->
          Control.append_log logs.(n) ~bytes:64 ~shard:n ~ops:[]
            (ref Control.Dcommit))
        [ 0; 1 ]);
  Control.crash_node ctl ~node:1;
  let held = k ~shard:0 ~id:7 in
  let issues =
    Control.audit ctl
      ~locked:(fun ~node -> if node <= 1 then [ (held, 42) ] else [])
      ~logs:(fun ~node -> [ ("log", logs.(node)) ])
  in
  Alcotest.(check (list string))
    "node 0's lock and log; crashed node 1 skipped"
    [
      Format.asprintf "T node 0: key %a still locked by owner 42" Keyspace.pp
        held;
      "T node 0: log not drained";
    ]
    issues;
  Alcotest.(check (list string)) "clean when nothing is held" []
    (Control.audit ctl ~locked:(fun ~node:_ -> []) ~logs:(fun ~node:_ -> []))

(* [System.drain] on a system whose audit reports a leak: a strict
   engine fails naming the caller and every violation, a lax one does
   not check. *)
let test_drain () =
  let sys ~strict =
    let engine = Xenic_sim.Engine.create ~strict () in
    let s =
      System.of_xenic
        (Xenic_system.create engine Xenic_params.Hw.testbed windowed_cfg
           Xenic_system.default_params)
    in
    { s with System.audit = (fun () -> [ "leak" ]) }
  in
  Alcotest.check_raises "strict: fails naming the caller"
    (Failure "Driver.run (w): 1 sanitizer violation(s):\nleak") (fun () ->
      System.drain (sys ~strict:true) ~who:"Driver.run (w)");
  System.drain (sys ~strict:false) ~who:"Driver.run (w)"

(* {2 The attempt tail, with fake closures} *)

(* Run [Control.finish] un-armed with fakes that log every closure call
   and mark in order; [validate] answers [verdict]. Returns the result,
   the calls, what [log] and [commit] were handed, and the control. *)
let fake_finish ?(verdict = `Valid) ?oracle ~checks ~lock_versions ops =
  let engine, ctl = mk_control () in
  Option.iter (Control.set_oracle ctl) oracle;
  let calls = ref [] and logged = ref None and committed = ref None in
  let call c = calls := c :: !calls in
  let result =
    in_process engine (fun () ->
        Control.finish ctl ~src:0 ~epoch0:0
          ~mark:(fun name t ->
            call ("mark " ^ name);
            t)
          ~t_prev:0.0 ~id:7 ~values:[] ~lock_versions ~checks
          ~validate:(fun _ ->
            call "validate";
            verdict)
          ~release:(fun () -> call "release")
          ~log:(fun by_shard _ ->
            call "log";
            logged := Some by_shard)
          ~commit:(fun seq_ops by_shard ->
            call "commit";
            committed := Some (seq_ops, by_shard))
          ops)
  in
  (result, List.rev !calls, !logged, !committed, ctl)

let put key = Op.Put (key, Bytes.of_string "v")

let calls_t = Alcotest.(list string)

let test_finish_no_checks () =
  let a = k ~shard:0 ~id:1 in
  let result, calls, _, _, _ =
    fake_finish ~checks:[] ~lock_versions:[ (a, 0) ] [ put a ]
  in
  Alcotest.check attempt_t "committed" `Committed result;
  Alcotest.check calls_t "no validate call, no validate mark"
    [ "log"; "mark log"; "commit"; "mark commit" ]
    calls

let test_finish_down () =
  let a = k ~shard:0 ~id:1 and b = k ~shard:1 ~id:2 in
  let result, calls, logged, _, _ =
    fake_finish ~verdict:`Down ~checks:[ (b, 3) ] ~lock_versions:[ (a, 0) ]
      [ put a ]
  in
  Alcotest.check attempt_t "retry on a timeout" (`Retry Metrics.Timeout) result;
  Alcotest.check calls_t "validated, then one release"
    [ "validate"; "mark validate"; "release" ]
    calls;
  Alcotest.(check bool) "log did not run" true (logged = None)

let test_finish_invalid () =
  let a = k ~shard:0 ~id:1 and b = k ~shard:1 ~id:2 in
  let result, calls, _, _, _ =
    fake_finish ~verdict:`Invalid ~checks:[ (b, 3) ] ~lock_versions:[ (a, 0) ]
      [ put a ]
  in
  Alcotest.check attempt_t "validation failure"
    (`Aborted Metrics.Validation_failure) result;
  Alcotest.check calls_t "validated, then one release"
    [ "validate"; "mark validate"; "release" ]
    calls

let test_finish_read_only () =
  let a = k ~shard:0 ~id:1 and b = k ~shard:1 ~id:2 in
  let oracle = Oracle.create () in
  let result, calls, logged, _, ctl =
    fake_finish ~oracle ~checks:[ (b, 3) ] ~lock_versions:[ (a, 2) ] []
  in
  Alcotest.check attempt_t "committed" `Committed result;
  Alcotest.check calls_t "validated, then one release and no log"
    [ "validate"; "mark validate"; "release" ]
    calls;
  Alcotest.(check bool) "log did not run" true (logged = None);
  Control.sync ctl;
  Alcotest.(check int) "oracle recorded one transaction" 1
    (Oracle.txn_count oracle)

let test_finish_writes () =
  let a = k ~shard:0 ~id:1 and b = k ~shard:1 ~id:2 and c = k ~shard:2 ~id:3 in
  let result, calls, logged, committed, _ =
    fake_finish ~checks:[ (c, 0) ] ~lock_versions:[ (b, 0); (a, 4) ]
      [ put b; put a ]
  in
  Alcotest.check attempt_t "committed" `Committed result;
  Alcotest.check calls_t "marks in order: validate, log, commit"
    [ "validate"; "mark validate"; "log"; "mark log"; "commit"; "mark commit" ]
    calls;
  let by_shard = [ (0, [ (put a, 5) ]); (1, [ (put b, 1) ]) ] in
  Alcotest.(check bool) "log got the writes by shard" true
    (logged = Some by_shard);
  Alcotest.(check bool) "commit got the versioned writes" true
    (committed = Some ([ (put b, 1); (put a, 5) ], by_shard))

(* {2 The request shell, with a fake transport} *)

let timeout_ns = 40_000.0

(* A transport whose every hop takes [hop_ns] in a fresh process. It
   logs which of its fields ran, and [on_send] runs as the request
   leaves. *)
let fake_transport ?(on_send = ignore) engine ~hop_ns =
  let log = ref [] in
  let hop name k =
    log := name :: !log;
    Xenic_sim.Process.spawn engine (fun () ->
        Xenic_sim.Process.sleep engine hop_ns;
        k ())
  in
  let tr =
    {
      Control.depart = (fun ~src:_ ~dst:_ ~bytes:_ -> log := "depart" :: !log);
      send =
        (fun ~src:_ ~dst:_ ~bytes:_ k ->
          on_send ();
          hop "send" k);
      back = (fun ~src:_ ~dst:_ ~bytes:_ k -> hop "back" k);
      reject = (fun ~src:_ ~dst:_ ~bytes:_ k -> hop "reject" k);
    }
  in
  (tr, fun () -> List.rev !log)

let call_result =
  Alcotest.testable
    (fun fmt r ->
      Format.pp_print_string fmt
        (match r with `Ok n -> "ok " ^ string_of_int n | `Down -> "down"))
    ( = )

(* One [Control.call] from node 0 to node 1 in a process; returns its
   result, the simulated time it returned at, and how often the caller
   resumed. [handler] logs into the transport's log. *)
let run_call ?epoch0 ?(handler = fun () -> 42) engine ctl tr =
  let resumed = ref 0 and at = ref nan in
  let result =
    in_process engine (fun () ->
        let r =
          Control.call ctl tr ?epoch0 ~src:0 ~dst:1 ~req_bytes:64
            ~resp_bytes:(fun _ -> 16)
            handler
        in
        incr resumed;
        at := Xenic_sim.Engine.now engine;
        r)
  in
  (result, !at, !resumed)

let test_call_unarmed () =
  let engine, ctl = mk_control () in
  let tr, log = fake_transport engine ~hop_ns:1_000.0 in
  let ran = ref [] in
  let result, at, _ =
    run_call engine ctl tr ~handler:(fun () ->
        ran := log ();
        42)
  in
  Alcotest.check call_result "ok" (`Ok 42) result;
  Alcotest.(check (list string)) "handler after send" [ "depart"; "send" ] !ran;
  Alcotest.(check (list string)) "back after the handler"
    [ "depart"; "send"; "back" ] (log ());
  Alcotest.(check (float 0.0)) "one round trip" 2_000.0 at

let test_call_crashed_dst () =
  let engine, ctl = mk_control ~req_timeout_ns:timeout_ns () in
  let tr, log = fake_transport engine ~hop_ns:1_000.0 in
  Control.crash_node ctl ~node:1;
  let result, at, _ = run_call engine ctl tr in
  Alcotest.check call_result "down" `Down result;
  Alcotest.(check (float 0.0)) "after exactly the timeout" timeout_ns at;
  Alcotest.(check (float 0.0)) "one req_timeouts" 1.0
    (counter ctl "req_timeouts");
  Alcotest.(check (list string)) "nothing sent" [] (log ())

let test_call_stale_reject () =
  let engine, ctl = mk_control ~req_timeout_ns:timeout_ns () in
  let tr, log =
    fake_transport engine ~hop_ns:1_000.0 ~on_send:(fun () ->
        ctl.Control.epoch <- 1)
  in
  let handled = ref false in
  let result, at, _ =
    run_call ~epoch0:0 engine ctl tr ~handler:(fun () ->
        handled := true;
        42)
  in
  Alcotest.check call_result "down" `Down result;
  Alcotest.(check bool) "handler did not run" false !handled;
  Alcotest.(check (list string)) "rejected" [ "depart"; "send"; "reject" ]
    (log ());
  Alcotest.(check (float 0.0)) "one stale_epoch_rejects" 1.0
    (counter ctl "stale_epoch_rejects");
  Alcotest.(check (float 0.0)) "no timeout" 0.0 (counter ctl "req_timeouts");
  Alcotest.(check (float 0.0)) "answered, not timed out" 2_000.0 at

let test_call_stale_drop () =
  let engine, ctl = mk_control ~req_timeout_ns:timeout_ns () in
  let tr, log = fake_transport engine ~hop_ns:1_000.0 in
  let result, _, _ =
    run_call ~epoch0:0 engine ctl tr ~handler:(fun () ->
        ctl.Control.epoch <- 1;
        42)
  in
  Alcotest.check call_result "down" `Down result;
  Alcotest.(check (list string)) "response sent" [ "depart"; "send"; "back" ]
    (log ());
  Alcotest.(check (float 0.0)) "one stale_epoch_drops" 1.0
    (counter ctl "stale_epoch_drops");
  Alcotest.(check (float 0.0)) "no reject" 0.0
    (counter ctl "stale_epoch_rejects")

let test_call_late_response () =
  let engine, ctl = mk_control ~strict:true ~req_timeout_ns:timeout_ns () in
  (* A 60 us round trip against a 40 us deadline. *)
  let tr, log = fake_transport engine ~hop_ns:30_000.0 in
  let result, at, resumed = run_call engine ctl tr in
  Alcotest.check call_result "down" `Down result;
  Alcotest.(check (float 0.0)) "at the deadline" timeout_ns at;
  Alcotest.(check (list string)) "the response did arrive"
    [ "depart"; "send"; "back" ] (log ());
  Alcotest.(check int) "caller resumed once" 1 resumed;
  Alcotest.(check (float 0.0)) "one req_timeouts" 1.0
    (counter ctl "req_timeouts");
  Alcotest.(check (list string)) "sanitizer clean" []
    (Xenic_sim.Engine.sanitize engine)

let () =
  Alcotest.run "xenic_proto"
    [
      ( "types",
        [
          Alcotest.test_case "sets" `Quick test_txn_sets;
          Alcotest.test_case "group_by_shard" `Quick test_group_by_shard;
        ] );
      ("wire", [ Alcotest.test_case "sizes" `Quick test_wire_sizes ]);
      ( "metrics",
        [
          Alcotest.test_case "basics" `Quick test_metrics;
          Alcotest.test_case "abort accounting" `Quick
            test_metrics_abort_accounting;
          Alcotest.test_case "abort reasons" `Quick test_metrics_abort_reasons;
        ] );
      ("features", [ Alcotest.test_case "ladders" `Quick test_features_ladders ]);
      ( "admission",
        [
          Alcotest.test_case "capacity" `Quick test_admission_capacity;
          Alcotest.test_case "backpressure" `Quick test_admission_backpressure;
          Alcotest.test_case "deadline" `Quick test_admission_deadline;
          Alcotest.test_case "unlimited" `Quick test_admission_unlimited;
          Alcotest.test_case "invalid configs" `Quick test_admission_invalid;
        ] );
      ( "windowed contract",
        [
          Alcotest.test_case "armed create rejected" `Quick
            test_windowed_rejects_armed;
          Alcotest.test_case "membership rejected" `Quick
            test_windowed_rejects_membership;
          Alcotest.test_case "trace rejected" `Quick test_windowed_rejects_trace;
        ] );
      ( "control",
        [
          Alcotest.test_case "commit point: un-armed" `Quick
            test_commit_point_unarmed;
          Alcotest.test_case "commit point: fence refused" `Quick
            test_commit_point_fence_refused;
          Alcotest.test_case "commit point: crash mid-LOG" `Quick
            test_commit_point_crash_mid_log;
          Alcotest.test_case "commit point: armed commit" `Quick
            test_commit_point_armed_commit;
          Alcotest.test_case "audit" `Quick test_audit;
          Alcotest.test_case "system drain" `Quick test_drain;
          Alcotest.test_case "finish: no checks" `Quick test_finish_no_checks;
          Alcotest.test_case "finish: validate down" `Quick test_finish_down;
          Alcotest.test_case "finish: validate invalid" `Quick
            test_finish_invalid;
          Alcotest.test_case "finish: read-only" `Quick test_finish_read_only;
          Alcotest.test_case "finish: writes, un-armed" `Quick
            test_finish_writes;
          Alcotest.test_case "call: un-armed round trip" `Quick
            test_call_unarmed;
          Alcotest.test_case "call: crashed destination" `Quick
            test_call_crashed_dst;
          Alcotest.test_case "call: stale request rejected" `Quick
            test_call_stale_reject;
          Alcotest.test_case "call: stale response dropped" `Quick
            test_call_stale_drop;
          Alcotest.test_case "call: late response ignored" `Quick
            test_call_late_response;
        ] );
    ]
