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
  Alcotest.(check (option int)) "not single shard" None (Types.single_shard txn);
  let local = Types.make ~read_set:[ a ] ~write_set:[ c ] (fun _ -> []) in
  Alcotest.(check (option int)) "single shard" (Some 0) (Types.single_shard local);
  let reads_only = Types.make ~read_set:[ b ] ~write_set:[] (fun _ -> []) in
  Alcotest.(check (option int)) "read-only single shard" (Some 1)
    (Types.single_shard reads_only)

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
    (Types.group_by_shard fst [ (c, "c"); (d, "d"); (a, "a") ]);
  let one = [ a; c ] in
  Alcotest.(check bool) "one shard: the input list itself" true
    (match Types.group_by_shard Fun.id one with
    | [ (2, l) ] -> l == one
    | _ -> false)

let test_wire_sizes () =
  Alcotest.(check bool) "execute grows with keys" true
    (Wire.execute_req_b ~n_reads:4 ~n_locks:2 ~state_bytes:0
    > Wire.execute_req_b ~n_reads:1 ~n_locks:0 ~state_bytes:0);
  let put = Op.Put (k ~shard:0 ~id:1, Bytes.create 64) in
  let ops = [ (put, 1) ] in
  Alcotest.(check bool) "log record bigger than ops" true
    (Wire.log_record_b ~ops > Wire.write_ops_b ~ops);
  Alcotest.(check int) "put op bytes" (8 + 8 + 64) (Op.bytes put);
  Alcotest.(check int) "write ops: header + op bytes" (16 + 8 + 8 + 64)
    (Wire.write_ops_b ~ops);
  let read id v = (k ~shard:0 ~id, v, 1) in
  Alcotest.(check bool) "resp includes values" true
    (Wire.execute_resp_b
       ~values:[ read 1 (Some (Bytes.create 64)); read 2 (Some (Bytes.create 64)) ]
    > Wire.execute_resp_b ~values:[ read 1 None ])

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
  (* Aborted attempts count towards the abort totals, classed or not,
     and leave the commit latencies alone. *)
  let m = Metrics.create () in
  Metrics.record m ~latency_ns:4_000.0 Types.Aborted;
  Metrics.record m ~latency_ns:5_000.0 Types.Aborted;
  Metrics.record m ~latency_ns:6_000.0 Types.Aborted;
  Alcotest.(check int) "aborts counted" 3 (Metrics.aborted m);
  Metrics.record_class m ~cls:"pay" ~latency_ns:1_000.0 Types.Aborted;
  Metrics.record_class m ~cls:"pay" ~latency_ns:1_000.0 Types.Committed;
  Alcotest.(check int) "class aborts" 4 (Metrics.aborted m);
  Alcotest.(check int) "class commits" 1 (Metrics.committed_class m ~cls:"pay");
  Alcotest.(check (float 1e-9)) "abort rate" 0.8 (Metrics.abort_rate m);
  Alcotest.(check (float 20.0))
    "commit latency only" 1_000.0 (Metrics.median_latency m)

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
  (* The source of a merge is left as it was. *)
  Alcotest.(check int) "source kept" 1
    (Metrics.abort_reason_count m2 Metrics.Timeout)

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
  Alcotest.(check int) "depth refilled" 2 (Admission.depth a)

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
  Alcotest.(check int) "depth unchanged by sheds" 1 (Admission.depth a)

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
  Alcotest.(check int) "depth released" 1 (Admission.depth a)

let test_admission_unlimited () =
  let a = Admission.create Admission.unlimited in
  for _ = 1 to 1_000 do
    Alcotest.(check bool) "always admitted" true
      (Admission.offer a ~occupancy:1e9 = Ok ())
  done;
  Alcotest.(check bool) "never dropped" false
    (Admission.drop_expired a ~waited_ns:1e18);
  Alcotest.(check int) "every request held" 1_000 (Admission.depth a)

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

(* The windowed contract (partitions > 1): epoch, fence, liveness and
   trace state is shared by every partition, so arming (and with it a
   membership) and tracing are refused up front — on both stacks. One
   partition has no cross-partition state, so there both are legal. *)
let windowed_cfg = Config.make ~nodes:4 ~replication:3

(* Any stack through the builder, on [windowed_cfg], at the default
   store sizes. *)
let build ?strict ?armed ?partitions stack =
  let d = Xenic_system.default_params in
  System.create ?strict ?armed ?partitions ~nodes:windowed_cfg.nodes
    ~replication:windowed_cfg.replication
    ~store_cfg:(d.segments, d.seg_size, d.d_max)
    ~buckets:Rdma_system.default_params.buckets stack

(* Each stack's command-line name maps back to it through the name
   table a command line parses with; nothing else is in the table. *)
let test_stack_names () =
  let stack_t = Alcotest.testable (Fmt.of_to_string System.stack_name) ( = ) in
  let table = List.map (fun s -> (System.stack_name s, s)) System.stacks in
  List.iter
    (fun stack ->
      Alcotest.(check (option stack_t))
        (System.stack_name stack) (Some stack)
        (List.assoc_opt (System.stack_name stack) table))
    System.stacks;
  Alcotest.(check int) "six distinct names" 6
    (List.length (List.sort_uniq String.compare (List.map fst table)));
  List.iter
    (fun name ->
      Alcotest.(check (option stack_t)) name None (List.assoc_opt name table))
    [ ""; "Xenic"; "drtmh_nc"; "DrTM+H"; "rdma"; "farm " ]

(* [System.create] builds the named stack over the requested cluster,
   passes [armed] and [partitions] through to its params, and keeps
   the base params' values when they are not given. *)
let test_create_stacks () =
  List.iter2
    (fun stack name ->
      let sys = build stack in
      Alcotest.(check string) (name ^ ": name") name sys.System.name;
      Alcotest.(check int) (name ^ ": nodes") 4 sys.System.cfg.Config.nodes;
      Alcotest.(check bool) (name ^ ": un-armed by default") true
        (Option.is_none sys.System.control.Control.membership);
      Alcotest.(check int) (name ^ ": one partition by default") 1
        (Xenic_sim.Engine.partitions sys.System.engine);
      let small =
        System.create ~nodes:5 ~replication:2 ~armed:true ~store_cfg:(8, 64, None)
          ~buckets:64 stack
      in
      Alcotest.(check int) (name ^ ": 5 nodes") 5 small.System.cfg.Config.nodes;
      Alcotest.(check int) (name ^ ": replication 2") 2
        small.System.cfg.Config.replication;
      Alcotest.(check bool) (name ^ ": armed") true
        (Option.is_some small.System.control.Control.membership);
      Control.stop_background small.System.control;
      Alcotest.(check int) (name ^ ": 2 partitions") 2
        (Xenic_sim.Engine.partitions (build ~partitions:2 stack).System.engine);
      let base_armed =
        match stack with
        | System.Xenic ->
            System.create ~nodes:4 ~replication:3
              ~xenic:{ Xenic_system.default_params with armed = true }
              ~store_cfg:(8, 64, None) ~buckets:64 stack
        | _ ->
            System.create ~nodes:4 ~replication:3
              ~rdma:{ Rdma_system.default_params with armed = true }
              ~store_cfg:(8, 64, None) ~buckets:64 stack
      in
      Alcotest.(check bool) (name ^ ": armed base params") true
        (Option.is_some base_armed.System.control.Control.membership);
      Control.stop_background base_armed.System.control)
    System.stacks
    [ "Xenic"; "DrTM+H"; "DrTM+H (NC)"; "FaSST"; "DrTM+R"; "FaRM" ]

let test_windowed_rejects_armed () =
  let err = Invalid_argument "Control.create: a windowed system cannot be armed" in
  List.iter
    (fun stack ->
      Alcotest.check_raises (System.stack_name stack) err (fun () ->
          ignore (build ~armed:true ~partitions:2 stack)))
    System.stacks

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
    (List.map
       (fun stack ->
         (System.stack_name stack, (build ~partitions:2 stack).System.control))
       System.stacks)

(* A default system, and one asking for a single partition, may be
   armed and traced on every stack. *)
let test_one_partition_armed_traced () =
  List.iter
    (fun stack ->
      List.iter
        (fun partitions ->
          let name =
            Printf.sprintf "%s, partitions %d" (System.stack_name stack)
              partitions
          in
          let sys = build ~armed:true ~partitions stack in
          let ctl = sys.System.control in
          Alcotest.(check int) (name ^ ": one partition") 1
            (Xenic_sim.Engine.partitions sys.System.engine);
          Alcotest.(check bool) (name ^ ": armed") true
            (Option.is_some ctl.Control.membership);
          Control.set_trace ctl (Some (Xenic_sim.Trace.create sys.System.engine));
          Alcotest.(check bool) (name ^ ": traced") true
            (Option.is_some ctl.Control.trace);
          Control.stop_background ctl)
        [ 0; 1 ])
    System.stacks

(* {2 The shared commit point and audit, with fake transports} *)

let mk_control ?strict ?(armed = false) () =
  let engine = Xenic_sim.Engine.create ?strict () in
  let ctl =
    Control.create engine Xenic_params.Hw.testbed windowed_cfg ~stack:"T"
      ~partitions:0 ~armed ~table:(fun () ->
        Storage.Chained (Xenic_store.Chained.create ~buckets:1 ~b:1))
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
    (fun fmt (a : Control.outcome) ->
      Format.pp_print_string fmt
        (match a with
        | `Committed -> "committed"
        | `Aborted r -> "aborted " ^ Metrics.abort_reason_name r
        | `Retry r -> "retry " ^ Metrics.abort_reason_name r))
    ( = )

(* Attempt 7 of coordinator 0. *)
let fake_attempt () = { Control.coord = 0; seq = 7; owner = 7; start = 0.0 }

(* Fake transport: records which closures ran and the decision [log]
   was handed; [on_log] runs inside [log]. *)
let fake_commit_point ?(on_log = ignore) engine ctl =
  let decision = ref None and committed = ref false and aborted = ref false in
  let result =
    in_process engine (fun () ->
        Control.commit_point ctl (fake_attempt ()) ~epoch0:0
          ~log:(fun d ->
            decision := Some d;
            on_log ())
          ~commit:(fun () -> committed := true)
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
  let engine, ctl = mk_control ~armed:true () in
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
  let engine, ctl = mk_control ~armed:true () in
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
  let engine, ctl = mk_control ~armed:true () in
  let result, decision, committed, _ = fake_commit_point engine ctl in
  Alcotest.check attempt_t "committed" `Committed result;
  Alcotest.(check (option decision_t)) "decision committed"
    (Some Control.Dcommit) decision;
  Alcotest.(check bool) "commit ran" true committed;
  Alcotest.(check int) "fence released" 0 ctl.Control.inflight_commits

(* An armed stack starts its own membership: with nothing attached by
   hand, a crash is declared at lease expiry, the epoch bumps and
   recovery promotes a successor. An un-armed stack has none. *)
let check_armed_membership name ~armed:ctl ~unarmed =
  let engine = ctl.Control.engine in
  Alcotest.(check bool) (name ^ ": lease below the request timeout") true
    (Float.compare Control.lease_ns Control.req_timeout_ns < 0);
  Control.crash_node ctl ~node:0;
  ignore (Xenic_sim.Engine.run ~until:(4.0 *. Control.lease_ns) engine);
  Control.stop_background ctl;
  ignore (Xenic_sim.Engine.run engine);
  Alcotest.(check bool) (name ^ ": node 0 declared") false ctl.Control.alive.(0);
  Alcotest.(check bool) (name ^ ": epoch bumped") true (ctl.Control.epoch >= 1);
  Alcotest.(check bool) (name ^ ": promotion ran") true
    (counter ctl "recovery_promotions" >= 1.0);
  Alcotest.(check bool) (name ^ ": un-armed has no membership") true
    (Option.is_none unarmed.Control.membership)

let test_armed stack () =
  let mk armed = (build ~armed stack).System.control in
  check_armed_membership (System.stack_name stack) ~armed:(mk true)
    ~unarmed:(mk false)

(* The remaining RDMA flavors share DrTM+H's create, but each must
   still arm on its own switch. *)
let test_armed_other_flavors () =
  List.iter
    (fun stack -> test_armed stack ())
    System.[ Drtmh_nc; Fasst; Drtmr; Farm ]

let test_audit () =
  let engine, ctl = mk_control () in
  let logs name =
    Array.init 4 (fun node -> Control.host_log ctl ~node ~name)
  in
  let backup = logs "backup log" in
  let commit = logs "commit log" in
  (* Undrained records in both logs at nodes 0 and 1 (commit log
     first); node 1 then crashes. *)
  in_process engine (fun () ->
      List.iter
        (fun n ->
          List.iter
            (fun log ->
              Control.append_log ctl ~node:n log.(n) ~bytes:64 ~shard:n
                ~ops:[] (ref Control.Dcommit))
            [ commit; backup ])
        [ 0; 1 ]);
  Control.crash_node ctl ~node:1;
  let held = k ~shard:0 ~id:7 in
  let issues =
    Control.audit ctl
      ~locked:(fun ~node -> if node <= 1 then [ (held, 42) ] else [])
  in
  Alcotest.(check (list string))
    "node 0's lock and logs in host_log order; crashed node 1 skipped"
    [
      Format.asprintf "T node 0: key %a still locked by owner 42" Keyspace.pp
        held;
      "T node 0: backup log not drained";
      "T node 0: commit log not drained";
    ]
    issues;
  let _, fresh = mk_control () in
  Alcotest.(check (list string)) "clean when nothing is held" []
    (Control.audit fresh ~locked:(fun ~node:_ -> []))

(* [System.drain] on a system whose audit reports a leak: a strict
   engine fails naming the caller and every violation, a lax one does
   not check. *)
let test_drain () =
  let sys ~strict =
    { (build ~strict System.Xenic) with System.audit = (fun () -> [ "leak" ]) }
  in
  Alcotest.check_raises "strict: fails naming the caller"
    (Failure "Driver.run (w): 1 sanitizer violation(s):\nleak") (fun () ->
      System.drain (sys ~strict:true) ~who:"Driver.run (w)");
  System.drain (sys ~strict:false) ~who:"Driver.run (w)"

(* {2 The attempt tail, with fake closures} *)

(* Run [Control.finish] un-armed with fakes that log every closure call
   as an instant in a trace attached to the control; [validate]
   answers [verdict]. The calls are read back in order, each ["txn"]
   span on the attempt's own track (coordinator 0, seq 7) as
   ["mark <phase>"]. Returns the result, the calls, what [log] and
   [commit] were handed, and the control. *)
let fake_finish ?(verdict = `Valid) ?oracle ~checks ~lock_versions ops =
  let engine, ctl = mk_control () in
  Option.iter (Control.set_oracle ctl) oracle;
  let trace = Xenic_sim.Trace.create engine in
  Control.set_trace ctl (Some trace);
  let logged = ref None and committed = ref None in
  let call c = Control.trace_instant ctl ~cat:"call" ~name:c ~pid:0 ~tid:0 [] in
  let result =
    in_process engine (fun () ->
        Control.finish ctl (fake_attempt ()) ~epoch0:0 ~values:[]
          ~lock_versions ~checks
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
  let calls =
    List.filter_map
      (function
        | Xenic_sim.Trace.Instant { cat = "call"; name; _ } -> Some name
        | Xenic_sim.Trace.Span { cat = "txn"; name; pid = 0; tid = 7; _ } ->
            Some ("mark " ^ name)
        | _ -> None)
      (Xenic_sim.Trace.events trace)
  in
  (result, calls, !logged, !committed, ctl)

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

let timeout_ns = Control.req_timeout_ns

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
  let engine, ctl = mk_control ~armed:true () in
  let tr, log = fake_transport engine ~hop_ns:1_000.0 in
  Control.crash_node ctl ~node:1;
  let result, at, _ = run_call engine ctl tr in
  Alcotest.check call_result "down" `Down result;
  Alcotest.(check (float 0.0)) "after exactly the timeout" timeout_ns at;
  Alcotest.(check (float 0.0)) "one req_timeouts" 1.0
    (counter ctl "req_timeouts");
  Alcotest.(check (list string)) "nothing sent" [] (log ())

let test_call_stale_reject () =
  let engine, ctl = mk_control ~armed:true () in
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
  let engine, ctl = mk_control ~armed:true () in
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
  let engine, ctl = mk_control ~strict:true ~armed:true () in
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

(* {2 Bulk load: one insert pass per shard, cloned at seal} *)

(* Skipping [seal] would leave the backups empty, so both entry points
   refuse to run until it has; after it, a write commits and reaches
   every replica. *)
let test_load_without_seal () =
  List.iter
    (fun stack ->
      let sys = build stack in
      let stack = sys.name in
      let key = k ~shard:1 ~id:7 in
      sys.load key (Bytes.of_string "v");
      let txn =
        Types.make ~read_set:[ key ] ~write_set:[ key ] (fun _ ->
            [ Op.Put (key, Bytes.of_string "w") ])
      in
      let err = Invalid_argument (stack ^ ": load without seal") in
      Alcotest.check_raises (stack ^ ": run_txn") err (fun () ->
          ignore (sys.run_txn ~node:0 txn));
      Alcotest.check_raises (stack ^ ": peek") err (fun () ->
          ignore (System.peek sys ~node:1 key));
      sys.seal ();
      Alcotest.(check bool)
        (stack ^ ": commits once sealed")
        true
        (in_process sys.engine (fun () -> sys.run_txn ~node:0 txn)
        = Types.Committed);
      System.drain sys ~who:stack;
      List.iter
        (fun node ->
          Alcotest.(check (option string))
            (Printf.sprintf "%s: node %d holds the write" stack node)
            (Some "w")
            (Option.map Bytes.to_string (System.peek sys ~node key)))
        (Config.replicas windowed_cfg ~shard:1))
    System.[ Xenic; Drtmh ]

(* A small Smallbank load, dense enough that Robinhood overflows and
   chains grow: 2000 keys per shard in 36 x 64 Robinhood slots with
   d_max 4, 150 x 8 chained cells, 2400 Hopscotch slots. *)
let sb = { Xenic_workload.Smallbank.default_params with accounts_per_node = 1_000 }

let rh_segments, rh_seg_size, rh_d_max = (36, 64, Some 4)

let rdma_params = { Rdma_system.default_params with buckets = 150 }

(* Run [Smallbank.load] (which seals) and return its loads in order. *)
let recorded_load (sys : System.t) =
  let loads = ref [] in
  Xenic_workload.Smallbank.load sb
    {
      sys with
      load =
        (fun key v ->
          loads := (key, v) :: !loads;
          sys.load key v);
    };
  List.rev !loads

let shard_loads loads ~shard =
  List.filter
    (fun (key, _) -> Keyspace.shard key = shard && not (Keyspace.ordered key))
    loads

let at_most_one = function [] -> [] | x :: _ -> [ x ]

let value_seq = Option.map (fun (v, seq) -> (Bytes.to_string v, seq))

(* Everything a Robinhood table shows: slots in order, homes and
   displacements, per-segment bounds and overflow counts, and where
   each key sits. *)
let rh_dump t keys =
  let slots = ref [] and homes = ref [] in
  Xenic_store.Robinhood.iter t (fun key v seq ->
      slots := (key, Bytes.to_string v, seq) :: !slots);
  Xenic_store.Robinhood.iter_home_disp t (fun ~home ~disp ->
      homes := (home, disp) :: !homes);
  ( !slots,
    !homes,
    List.init (Xenic_store.Robinhood.segments t) (fun seg ->
        ( Xenic_store.Robinhood.seg_disp_bound t seg,
          Xenic_store.Robinhood.overflow_count t seg )),
    List.map (Xenic_store.Robinhood.locate t) keys )

let chained_dump t keys =
  ( Xenic_store.Chained.size t,
    Xenic_store.Chained.buckets_allocated t,
    List.map
      (fun key ->
        ( value_seq (Xenic_store.Chained.find t key),
          Xenic_store.Chained.lookup_cost t key ))
      keys )

let hopscotch_dump t keys =
  ( Xenic_store.Hopscotch.size t,
    List.map
      (fun key ->
        ( Option.map
            (fun (seq, v) -> (seq, Bytes.to_string v))
            (Xenic_store.Hopscotch.find t key),
          Xenic_store.Hopscotch.lookup_cost t key ))
      keys )

(* Check every replica of every shard against [reference ~shard], built
   by per-replica inserts in load order; then [write ~shard ~primary] on
   the primary only, and check every backup still matches. *)
let check_replicas stack ~nodes ~reference ~dump ~write =
  for shard = 0 to nodes - 1 do
    let expect = reference ~shard in
    let check what =
      List.iter
        (fun node ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: shard %d, node %d %s" stack shard node what)
            true
            (dump ~node ~shard = expect))
    in
    check "matches the per-replica build" (Config.replicas windowed_cfg ~shard);
    let primary = Config.primary windowed_cfg ~shard in
    write ~shard ~primary;
    Alcotest.(check bool)
      (Printf.sprintf "%s: shard %d primary changed" stack shard)
      false
      (dump ~node:primary ~shard = expect);
    check "unchanged by a primary write" (Config.backups windowed_cfg ~shard)
  done

let test_replica_equivalence_xenic () =
  let x =
    Xenic_system.create (Xenic_sim.Engine.create ()) Xenic_params.Hw.testbed
      windowed_cfg
      {
        Xenic_system.default_params with
        segments = rh_segments;
        seg_size = rh_seg_size;
        d_max = rh_d_max;
      }
  in
  let loads = recorded_load (System.of_xenic x) in
  let keys ~shard = List.map fst (shard_loads loads ~shard) in
  let storage ~node = (Xenic_system.control x).Control.storage.(node) in
  let table ~node ~shard = Storage.robinhood (storage ~node) ~shard in
  let overflowed = ref 0 in
  check_replicas "Xenic" ~nodes:windowed_cfg.Config.nodes
    ~reference:(fun ~shard ->
      let t =
        Xenic_store.Robinhood.create ~segments:rh_segments ~seg_size:rh_seg_size
          ~d_max:rh_d_max ~vsize:Bytes.length
      in
      List.iter
        (fun (key, v) -> ignore (Xenic_store.Robinhood.insert t key v))
        (shard_loads loads ~shard);
      rh_dump t (keys ~shard))
    ~dump:(fun ~node ~shard -> rh_dump (table ~node ~shard) (keys ~shard))
    ~write:(fun ~shard ~primary ->
      (* Both a slot-resident key and an overflow record, so neither the
         values array nor an overflow record may be shared. *)
      let t = table ~node:primary ~shard in
      let in_table, in_overflow =
        List.partition
          (fun key -> Xenic_store.Robinhood.locate t key <> Some `Overflow)
          (keys ~shard)
      in
      overflowed := !overflowed + List.length in_overflow;
      List.iter
        (fun key ->
          Storage.apply (storage ~node:primary)
            (Op.Put (key, Bytes.of_string "changed"))
            ~seq:100 ~stamp:0)
        (List.hd in_table :: at_most_one in_overflow));
  Alcotest.(check bool) "some keys overflowed" true (!overflowed > 0)

let test_replica_equivalence_rdma () =
  List.iter
    (fun flavor ->
      let r =
        Rdma_system.create (Xenic_sim.Engine.create ()) Xenic_params.Hw.testbed
          windowed_cfg flavor rdma_params
      in
      let sys = System.of_rdma r in
      let stack = sys.System.name in
      let loads = recorded_load sys in
      let keys ~shard = List.map fst (shard_loads loads ~shard) in
      let hash ~node ~shard =
        (Storage.shard_store (Rdma_system.control r).Control.storage.(node)
           ~shard)
          .Storage.hash
      in
      let nodes = windowed_cfg.Config.nodes in
      match flavor with
      | Rdma_system.Farm ->
          let table ~node ~shard =
            match hash ~node ~shard with
            | Storage.Hopscotch h -> h
            | Storage.Chained _ | Storage.Robinhood _ ->
                Alcotest.fail "FaRM shard without Hopscotch"
          in
          check_replicas stack ~nodes
            ~reference:(fun ~shard ->
              let t =
                Xenic_store.Hopscotch.create
                  ~capacity:(rdma_params.buckets * Rdma_system.bucket_b * 2)
                  ~h:8
              in
              List.iter
                (fun (key, v) -> Xenic_store.Hopscotch.insert t key (1, v))
                (shard_loads loads ~shard);
              hopscotch_dump t (keys ~shard))
            ~dump:(fun ~node ~shard ->
              hopscotch_dump (table ~node ~shard) (keys ~shard))
            ~write:(fun ~shard ~primary ->
              let t = table ~node:primary ~shard in
              (* A neighborhood key and, if any, an overflow-chain key. *)
              let in_overflow =
                List.filter
                  (fun key ->
                    match Xenic_store.Hopscotch.lookup_cost t key with
                    | Some (_, 2) -> true
                    | _ -> false)
                  (keys ~shard)
              in
              List.iter
                (fun key ->
                  Xenic_store.Hopscotch.insert t key
                    (100, Bytes.of_string "changed"))
                (List.hd (keys ~shard) :: at_most_one in_overflow))
      | _ ->
          let table ~node ~shard =
            match hash ~node ~shard with
            | Storage.Chained c -> c
            | Storage.Hopscotch _ | Storage.Robinhood _ ->
                Alcotest.failf "%s shard without a chained table" stack
          in
          check_replicas stack ~nodes
            ~reference:(fun ~shard ->
              let t =
                Xenic_store.Chained.create ~buckets:rdma_params.buckets
                  ~b:Rdma_system.bucket_b
              in
              List.iter
                (fun (key, v) -> Xenic_store.Chained.insert t key v)
                (shard_loads loads ~shard);
              chained_dump t (keys ~shard))
            ~dump:(fun ~node ~shard ->
              chained_dump (table ~node ~shard) (keys ~shard))
            ~write:(fun ~shard ~primary ->
              let t = table ~node:primary ~shard in
              (* An existing key, and a new one. *)
              Xenic_store.Chained.put_newer t
                (List.hd (keys ~shard))
                (Bytes.of_string "changed") ~seq:100;
              Xenic_store.Chained.put_newer t (k ~shard ~id:999_999)
                (Bytes.of_string "new") ~seq:1))
    Rdma_system.[ Drtmh; Drtmh_nc; Fasst; Drtmr; Farm ]

(* Backup log workers apply records concurrently, so a long record can
   finish after a shorter, later one. Ordered tables carry no object
   version: on every RDMA flavor, the later of two decided writes to an
   ordered key must still be the one every replica keeps. *)
let test_rdma_backup_ordered_stamp_order () =
  List.iter
    (fun stack ->
      let sys = build stack in
      let stack = sys.name in
      let ok id = Keyspace.make ~shard:1 ~table:1 ~ordered:true ~id in
      let target = ok 0 in
      sys.load target (Bytes.of_string "loaded");
      sys.seal ();
      let put key v = Op.Put (key, Bytes.of_string v) in
      (* 200 fresh rows first, so the earlier record reaches [target]
         only after ~60 us of B+ tree work at each backup. *)
      let long =
        Types.make ~read_set:[] ~write_set:[ target ] (fun _ ->
            List.init 200 (fun i -> put (ok (i + 1)) "row")
            @ [ put target "early" ])
      in
      let short =
        Types.make ~read_set:[] ~write_set:[ target ] (fun _ ->
            [ put target "late" ])
      in
      let outcomes =
        in_process sys.engine (fun () ->
            let a = sys.run_txn ~node:0 long in
            let b = sys.run_txn ~node:0 short in
            [ a; b ])
      in
      Alcotest.(check bool)
        (stack ^ ": both commit")
        true
        (outcomes = [ Types.Committed; Types.Committed ]);
      System.drain sys ~who:stack;
      List.iter
        (fun node ->
          Alcotest.(check (option string))
            (Printf.sprintf "%s: node %d keeps the later write" stack node)
            (Some "late")
            (Option.map Bytes.to_string (System.peek sys ~node target)))
        (Config.replicas windowed_cfg ~shard:1))
    System.[ Drtmh; Drtmh_nc; Fasst; Drtmr; Farm ]

(* The dispatch loop delivers each message under the context it
   carries: a request's handler in a process of its own, a reply in the
   dispatch event itself, where blocking is an error. *)
let test_dispatch_reply_outside_process () =
  let engine, ctl = mk_control () in
  Control.dispatch_loop ctl ~node:1 ~pkt_io:None;
  let sender =
    { Xenic_sim.Attrib.default with stack = "T"; node = 0; phase = "sender" }
  in
  let reply_phase = ref "" and reply_blocked = ref None in
  let request_woke = ref false in
  let msgs =
    Xenic_sim.Engine.with_attrib engine (fun () ->
        Xenic_sim.Attrib.set sender;
        [
          Control.reply ~bytes:8 (fun () ->
              reply_phase := (Xenic_sim.Attrib.get ()).phase;
              reply_blocked :=
                Some
                  (match Xenic_sim.Process.suspend (fun _ -> ()) with
                  | () -> false
                  | exception Xenic_sim.Process.Not_in_process -> true));
          Control.request ~bytes:8 (fun () ->
              Xenic_sim.Process.sleep engine 10.0;
              request_woke := true);
        ])
  in
  Xenic_net.Fabric.send ctl.fabric ~src:0 ~dst:1 ~payload_bytes:16 msgs;
  ignore (Xenic_sim.Engine.run engine);
  Alcotest.(check string) "reply runs under the sender's context" "sender"
    !reply_phase;
  Alcotest.(check (option bool)) "suspend in a reply raises Not_in_process"
    (Some true) !reply_blocked;
  Alcotest.(check bool) "a request's handler may block" true !request_woke

(* A promoted primary applies its shard's ordered writes from its COMMIT
   log after the backup-log records it drained at promotion. Both logs
   count their own appends, so the record stamps alone would rank the
   new primary's first COMMIT below its 61st backup-log record and drop
   it, while the remaining backup applies it. *)
let test_promoted_primary_ordered_write () =
  let sys = build ~armed:true System.Xenic in
  let engine = sys.engine in
  let target = Keyspace.make ~shard:1 ~table:1 ~ordered:true ~id:0 in
  sys.load target (Bytes.of_string "loaded");
  sys.seal ();
  let write v =
    Types.make ~read_set:[] ~write_set:[ target ] (fun _ ->
        [ Op.Put (target, Bytes.of_string v) ])
  in
  let outcomes = ref [] in
  Xenic_sim.Process.spawn engine (fun () ->
      for _ = 1 to 61 do
        outcomes := sys.run_txn ~node:0 (write "before-crash") :: !outcomes
      done;
      Control.crash_node sys.control ~node:1;
      (* Lease expiry, recovery and the promotion of node 2. *)
      Xenic_sim.Process.sleep engine 500_000.0;
      outcomes := sys.run_txn ~node:0 (write "after-promotion") :: !outcomes;
      Control.stop_background sys.control);
  ignore (Xenic_sim.Engine.run engine);
  Alcotest.(check int) "62 transactions ran" 62 (List.length !outcomes);
  Alcotest.(check bool) "all committed" true
    (List.for_all (fun o -> o = Types.Committed) !outcomes);
  System.drain sys ~who:"xenic";
  Alcotest.(check int) "shard 1 promoted to node 2" 2
    (Control.current_primary sys.control ~shard:1);
  List.iter
    (fun node ->
      if node <> 1 then
        Alcotest.(check (option string))
          (Printf.sprintf "node %d keeps the last write" node)
          (Some "after-promotion")
          (Option.map Bytes.to_string (System.peek sys ~node target)))
    (Config.replicas windowed_cfg ~shard:1)

(* {2 Allocation ratchets} *)

(* Minor words per read-only transaction of eight keys of shard 1,
   coordinated at node 0 (not shard 1's primary), on a warm [stack]:
   eight one-sided READs on DrTM+H, eight CAS locks and then eight
   READs on DrTM+R. A READ's size is its slot's, looked up when it is
   issued; that lookup allocates the value's option only. *)
let read_txn_words stack =
  let sys = build stack in
  let keys = List.init 8 (fun id -> k ~shard:1 ~id) in
  List.iter (fun key -> sys.System.load key (Bytes.make 64 'v')) keys;
  sys.System.seal ();
  let txn = Types.make ~read_set:keys ~write_set:[] (fun _ -> []) in
  let run n =
    in_process sys.System.engine (fun () ->
        for _ = 1 to n do
          ignore (sys.System.run_txn ~node:0 txn)
        done)
  in
  run 10;
  let txns = 50 in
  let w0 = Gc.minor_words () in
  run txns;
  (Gc.minor_words () -. w0) /. float_of_int txns

let check_read_txn_words stack ~bound =
  let words = read_txn_words stack in
  Alcotest.(check bool)
    (Printf.sprintf "%s read-only txn: %.1f words within %.0f"
       (System.stack_name stack) words bound)
    true (words <= bound)

let test_alloc_one_sided_reads () =
  check_read_txn_words System.Drtmh ~bound:2741.0

let test_alloc_locked_reads () =
  check_read_txn_words System.Drtmr ~bound:4382.0

(* Minor words per committed transaction of [stack] that reads and
   writes [keys], coordinated at node 0 of a warm system: each commits,
   and its asynchronous COMMIT and log applies settle before the next,
   so the count is the whole path (coordinator, handlers, messages,
   verbs, DMA, log apply). Each transaction bumps the counter [path] by
   [per_txn]. *)
let txn_words stack ~path ~per_txn keys =
  let sys = build stack in
  List.iter (fun key -> sys.System.load key (Bytes.make 64 'v')) keys;
  sys.System.seal ();
  let ops = List.map (fun key -> Op.Put (key, Bytes.make 64 'w')) keys in
  let txn = Types.make ~read_set:keys ~write_set:keys (fun _ -> ops) in
  let run n =
    in_process sys.System.engine (fun () ->
        for _ = 1 to n do
          (match sys.System.run_txn ~node:0 txn with
          | Types.Committed -> ()
          | Types.Aborted -> Alcotest.fail (path ^ " transaction aborted"));
          Xenic_sim.Process.sleep sys.System.engine 100_000.0
        done)
  in
  run 10;
  let before = counter sys.System.control path in
  let txns = 50 in
  let w0 = Gc.minor_words () in
  run txns;
  let words = (Gc.minor_words () -. w0) /. float_of_int txns in
  Alcotest.(check (float 0.0))
    (Printf.sprintf "%s %d per transaction" path per_txn)
    (float_of_int (txns * per_txn))
    (counter sys.System.control path -. before);
  words

(* Per-call closures and scratch lists on the Xenic commit path made
   the three Xenic cases 1,458, 2,410 and 3,636. *)
let xenic_txn_words ~path keys = txn_words System.Xenic ~path ~per_txn:1 keys

let check_xenic_txn_words ~path keys ~bound =
  let words = xenic_txn_words ~path keys in
  Alcotest.(check bool)
    (Printf.sprintf "xenic %s txn: %.1f words within %.0f" path words bound)
    true (words <= bound)

(* Two keys of node 0's own shard: host execution, NIC lock and
   validate, LOG to the two backups, COMMIT applied locally. *)
let test_alloc_xenic_local () =
  check_xenic_txn_words ~path:"txns_local" ~bound:1161.0
    [ k ~shard:0 ~id:1; k ~shard:0 ~id:2 ]

(* One key of node 0's shard and one of shard 1: P1 locks locally, P2
   executes and LOGs with the responses routed to P1. *)
let test_alloc_xenic_multihop () =
  check_xenic_txn_words ~path:"txns_multihop" ~bound:1669.0
    [ k ~shard:0 ~id:1; k ~shard:1 ~id:2 ]

(* One key each of shards 1 and 2, neither served by node 0: EXECUTE at
   both primaries, LOG to their backups, COMMIT to both. *)
let test_alloc_xenic_distributed () =
  check_xenic_txn_words ~path:"txns_distributed" ~bound:2653.0
    [ k ~shard:1 ~id:1; k ~shard:2 ~id:2 ]

(* One key each of shards 1 and 2 on DrTM+H: two one-sided execution
   READs behind their own doorbells, a lock RPC per shard, the LOG as
   one doorbell batch of WRITEs and a COMMIT RPC per shard. Verbs that
   were processes, and a fiber per execution read, made it 2,891. *)
let test_alloc_drtmh_commit () =
  let words =
    txn_words System.Drtmh ~path:"read_roundtrips" ~per_txn:2
      [ k ~shard:1 ~id:1; k ~shard:2 ~id:2 ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "drtmh distributed txn: %.1f words within %.0f" words
       2432.0)
    true (words <= 2432.0)

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
      ( "builder",
        [
          Alcotest.test_case "stack names round-trip" `Quick
            test_stack_names;
          Alcotest.test_case "create on every stack" `Quick
            test_create_stacks;
        ] );
      ( "windowed contract",
        [
          Alcotest.test_case "armed create rejected" `Quick
            test_windowed_rejects_armed;
          Alcotest.test_case "trace rejected" `Quick test_windowed_rejects_trace;
          Alcotest.test_case "one partition armed and traced" `Quick
            test_one_partition_armed_traced;
        ] );
      ( "armed",
        [
          Alcotest.test_case "xenic starts its membership" `Quick
            (test_armed System.Xenic);
          Alcotest.test_case "drtmh starts its membership" `Quick
            (test_armed System.Drtmh);
          Alcotest.test_case "other rdma flavors start their membership"
            `Quick test_armed_other_flavors;
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
          Alcotest.test_case "dispatch: reply outside any process" `Quick
            test_dispatch_reply_outside_process;
          Alcotest.test_case "call: stale request rejected" `Quick
            test_call_stale_reject;
          Alcotest.test_case "call: stale response dropped" `Quick
            test_call_stale_drop;
          Alcotest.test_case "call: late response ignored" `Quick
            test_call_late_response;
        ] );
      ( "bulk load",
        [
          Alcotest.test_case "load without seal" `Quick test_load_without_seal;
          Alcotest.test_case "replica equivalence: Xenic" `Quick
            test_replica_equivalence_xenic;
          Alcotest.test_case "replica equivalence: RDMA stacks" `Quick
            test_replica_equivalence_rdma;
        ] );
      ( "log apply",
        [
          Alcotest.test_case "RDMA backups apply ordered writes in log order"
            `Quick test_rdma_backup_ordered_stamp_order;
          Alcotest.test_case "promoted primary applies ordered writes" `Quick
            test_promoted_primary_ordered_write;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "drtmh one-sided reads" `Quick
            test_alloc_one_sided_reads;
          Alcotest.test_case "drtmr locked reads" `Quick
            test_alloc_locked_reads;
          Alcotest.test_case "xenic local commit" `Quick test_alloc_xenic_local;
          Alcotest.test_case "xenic multi-hop commit" `Quick
            test_alloc_xenic_multihop;
          Alcotest.test_case "xenic distributed commit" `Quick
            test_alloc_xenic_distributed;
          Alcotest.test_case "drtmh distributed commit" `Quick
            test_alloc_drtmh_commit;
        ] );
    ]
