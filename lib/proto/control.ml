open Xenic_sim
open Xenic_cluster

type msg = { bytes : int; deliver : unit -> unit }

(* Commit decision for a LOG record, shared (one ref per transaction)
   between the coordinator and every backup that holds a copy. Backups
   apply only decided-committed records: a worker finding [Dpending]
   waits for the coordinator to decide, so a crash between partial LOG
   appends and the commit point cannot diverge the replicas — the
   coordinator resolves every record it caused to be appended, to
   [Dabort] if it bails out. Legacy (no-timeout) runs create records
   already decided, which preserves the original eager-apply behavior. *)
type decision = Dpending | Dcommit | Dabort

type attempt =
  [ `Committed
  | `Aborted of Metrics.abort_reason
  | `Retry of Metrics.abort_reason ]

type t = {
  engine : Engine.t;
  cfg : Config.t;
  stack : string;
  fabric : msg Xenic_net.Fabric.t;
  req_timeout_ns : float option;
  part_metrics : Metrics.t array;
      (* one shard per engine partition (one when unpartitioned),
         touched only by events running in that partition *)
  part_oracle : Oracle.t array;
      (* per-partition commit buffers feeding the attached oracle;
         flushed by [sync] *)
  primaries : int array;  (* shard -> current primary node *)
  alive : bool array;
      (* routing view: false once a node is removed from the
         configuration — immediately by [fail_node], or at lease expiry
         when membership is attached *)
  crashed : bool array;
      (* instantaneous view: true from the crash instant on. A crashed
         node's inbound messages are dropped at dispatch (its NIC is
         gone), so its in-flight requests die by timeout even before
         the failure detector declares it. *)
  txn_seq : int array;  (* per-coordinator attempt counter *)
  mutable epoch : int;  (* bumped on every reconfiguration *)
  mutable inflight_commits : int;
      (* transactions past the commit fence (LOG under way); recovery
         waits for zero before changing routing *)
  mutable recovery_waiting : int;
      (* pending reconfigurations; while nonzero the commit fence
         admits no new transaction *)
  mutable membership : Membership.t option;
  mutable oracle : Oracle.t option;
  mutable trace : Trace.t option;
  mutable telemetry : Xenic_telemetry.Telemetry.t option;
}

(* Knobs both stacks share. No configuration varies them. *)
let retry_backoff_ns = 30_000.0  (* first armed retry backoff; doubles *)

let max_retries = 10  (* armed attempts before reporting Aborted *)

let log_capacity_b = 4 * 1024 * 1024  (* each host-memory log *)

let btree_op_ns = 300.0  (* host cost of one ordered-table write *)

let create engine hw cfg ~stack ~partitions ~req_timeout_ns =
  (* The windowed contract: fence, epoch and membership state is
     cross-partition, so a windowed system must stay un-armed. *)
  if partitions > 0 && Option.is_some req_timeout_ns then
    invalid_arg "Control.create: a windowed system cannot arm req_timeout_ns";
  (* [partitions > 0] requests windowed conservative-PDES mode,
     partitioned by node before any event exists: the open-loop driver
     has no cross-node shared state, so partitions can drain whole
     lookahead windows independently (lookahead = the wire latency
     every cross-node message already pays). Results are bit-identical
     for a fixed partition count regardless of domains. Otherwise the
     engine stays single-heap whatever its domain budget. *)
  let nodes = cfg.Config.nodes in
  if partitions > 0 then begin
    if Engine.partitions engine <> 0 then
      invalid_arg "Control.create: engine already has a topology";
    let partitions = min partitions nodes in
    Engine.set_topology engine ~lookahead:hw.Xenic_params.Hw.wire_latency_ns
      ~partitions
      ~node_partition:(fun node ->
        Config.partition_of_node cfg ~partitions ~node)
  end;
  let per_partition f =
    Array.init (max 1 (Engine.partitions engine)) (fun _ -> f ())
  in
  {
    engine;
    cfg;
    stack;
    fabric = Xenic_net.Fabric.create engine hw ~nodes;
    req_timeout_ns;
    part_metrics = per_partition Metrics.create;
    part_oracle = per_partition Oracle.create;
    primaries = Array.init nodes (fun shard -> Config.primary cfg ~shard);
    alive = Array.make nodes true;
    crashed = Array.make nodes false;
    txn_seq = Array.make nodes 0;
    epoch = 0;
    inflight_commits = 0;
    recovery_waiting = 0;
    membership = None;
    oracle = None;
    trace = None;
    telemetry = None;
  }

let armed t = Option.is_some t.req_timeout_ns

let windowed t = Option.is_some (Engine.current_lookahead t.engine)

(* ------------------------------------------------------------------ *)
(* Routing *)

let current_primary t ~shard = t.primaries.(shard)

(* Live backups of [shard]: its replicas minus the current primary and
   any dead nodes. *)
let backups_of t ~shard =
  List.filter
    (fun n -> n <> t.primaries.(shard) && t.alive.(n))
    (Config.replicas t.cfg ~shard)

let node_alive t ~node = t.alive.(node) && not t.crashed.(node)

(* A fresh id for one attempt coordinated at [node]: each attempt gets
   its own, so lock owner tokens never collide across retries. *)
let next_id t ~node =
  let seq = t.txn_seq.(node) + 1 in
  t.txn_seq.(node) <- seq;
  { Types.coord = node; seq }

(* ------------------------------------------------------------------ *)
(* Metrics, trace, telemetry, oracle *)

(* The metrics shard protocol events record into: the executing
   partition's (each partition's events run on one domain at a time, so
   a shard is never written concurrently). *)
let mx t = t.part_metrics.(Engine.current_partition t.engine)

(* Reported metrics: the shards merged into a fresh object in
   partition-index order — deterministic for a fixed partition count,
   independent of how many domains drained them. *)
let metrics t =
  let m = Metrics.create () in
  Array.iter (fun pm -> Metrics.merge ~into:m pm) t.part_metrics;
  m

let counters t = Metrics.counters (mx t)

let set_trace t tr =
  if windowed t && Option.is_some tr then
    invalid_arg "Control.set_trace: a windowed system cannot be traced";
  t.trace <- tr

let set_telemetry t tel = t.telemetry <- tel

(* Phase/recovery events for the trace (no-ops with tracing off). *)
let trace_instant t ~cat ~name ~pid ~tid args =
  match t.trace with
  | None -> ()
  | Some tr -> Trace.instant tr ~cat ~name ~pid ~tid ~args ()

(* Close one protocol phase: record its latency histogram sample and,
   when tracing, a span on the coordinator's track keyed by the
   transaction's sequence number, in trace category [cat]. Returns the
   new phase start. *)
let phase_mark ?(cat = "txn") t ~src ~seq name t_prev =
  let now = Engine.now t.engine in
  Metrics.record_phase (mx t) ~phase:name (now -. t_prev);
  (match t.trace with
  | None -> ()
  | Some tr ->
      Trace.span tr ~cat ~name ~pid:src ~tid:seq ~ts:t_prev
        ~dur:(now -. t_prev) ());
  now

let set_oracle t o = t.oracle <- Some o

(* Flush the partition-local oracle buffers into the attached oracle,
   in partition-index order (deterministic for a fixed partition
   count). On a windowed engine, call between runs only — never while
   partitions may still be recording. An unpartitioned system runs on
   one heap, so there it may also be called from an event mid-run. *)
let sync t =
  match t.oracle with
  | None -> ()
  | Some o -> Array.iter (fun po -> Oracle.absorb ~into:o po) t.part_oracle

(* Report a committed transaction to the attached oracle, buffered in
   the current partition's shard until [sync]. Keys read carry the
   value read; keys only locked carry their lock version; writes carry
   their installed version. *)
let record_commit t ~id ~values ~lock_versions ~seq_ops =
  match t.oracle with
  | None -> ()
  | Some _ ->
      let o = t.part_oracle.(Engine.current_partition t.engine) in
      let read_keys = List.map (fun (k, _, _) -> k) values in
      let reads =
        List.map (fun (k, v, seq) -> (k, seq, Oracle.Value v)) values
        @ List.filter_map
            (fun (k, seq) ->
              if List.mem k read_keys then None
              else Some (k, seq, Oracle.Version_only))
            lock_versions
      in
      let writes =
        List.map
          (fun (op, seq) ->
            match op with
            | Op.Put (k, b) -> (k, seq, Oracle.Put b)
            | Op.Delete k -> (k, seq, Oracle.Delete))
          seq_ops
      in
      Oracle.record_commit o ~id ~reads ~writes

let record_abort t ~latency_ns reason =
  let m = mx t in
  Metrics.record m ~latency_ns Types.Aborted;
  Metrics.record_abort_reason m reason

(* Admission-control hook (open-loop driver): a shed request is an
   aborted transaction in this system's taxonomy (reason [Shed]) so
   reason counts still sum to the abort count. *)
let record_shed t ~latency_ns = record_abort t ~latency_ns Metrics.Shed

(* ------------------------------------------------------------------ *)
(* Commit fence and LOG retry *)

(* The commit fence: entered before the first LOG byte is sent, so that
   recovery (which waits for [inflight_commits = 0]) can never change
   routing or rebuild an index while a transaction is between LOG and
   COMMIT. Refused — the caller aborts cleanly and retries — when the
   configuration moved on from [epoch0] or a reconfiguration is
   waiting. *)
let rec fence_acquire t ~src ~epoch0 =
  if t.crashed.(src) || t.epoch <> epoch0 then begin
    Xenic_stats.Counter.incr (counters t) "fence_refusals";
    false
  end
  else if t.recovery_waiting > 0 then begin
    Process.sleep t.engine 1_000.0;
    fence_acquire t ~src ~epoch0
  end
  else begin
    t.inflight_commits <- t.inflight_commits + 1;
    true
  end

let fence_release t = t.inflight_commits <- t.inflight_commits - 1

let rec wait_fence t =
  if t.inflight_commits > 0 then begin
    Process.sleep t.engine 1_000.0;
    wait_fence t
  end

(* Backup side of the decision protocol: wait out an undecided LOG
   record. The coordinator that caused the append always resolves it
   (to [Dabort] if it bails out after a crash), so the wait is bounded
   by an ack round trip. *)
let rec await_decision t decision =
  match !decision with
  | Dcommit -> true
  | Dabort ->
      Xenic_stats.Counter.incr (counters t) "log_discards";
      false
  | Dpending ->
      Process.sleep t.engine 500.0;
      await_decision t decision

(* Armed LOG retry rule. LOG must not fail once the commit fence is
   held — the decision has effectively been taken — so a LOG that times
   out against a backup is resent (idempotent: sequence-guarded apply)
   until the backup is seen crashed: its copy died with it and it can
   never be promoted past the declaration, so the transaction's
   durability is unaffected. *)
let rec settle_log t ~src ~backup send n =
  if not (send ()) then
    if t.crashed.(src) then
      (* The coordinator itself died mid-LOG: responses into it are
         dropped, so the timeout says nothing about the backup. Stop
         retrying — the shared decision resolves to abort right after
         the phase, and backups discard. *)
      Xenic_stats.Counter.incr (counters t) "log_from_dead_coord"
    else if t.crashed.(backup) then
      Xenic_stats.Counter.incr (counters t) "log_to_dead_backup"
    else if n >= 8 then
      (* With req_timeout_ns far above worst-case latency this is
         unreachable; failing loud beats silently diverging a live
         replica. *)
      failwith (t.stack ^ ": LOG to a live backup timed out repeatedly")
    else settle_log t ~src ~backup send (n + 1)

(* ------------------------------------------------------------------ *)
(* The commit protocol over any transport *)

(* The LOG fan-out: one [(shard, backup, writes)] per live backup of
   each written shard, shards in the order given. *)
let log_targets t seq_ops_by_shard =
  List.concat_map
    (fun (shard, seq_ops) ->
      List.map (fun backup -> (shard, backup, seq_ops)) (backups_of t ~shard))
    seq_ops_by_shard

(* Send every LOG in parallel and wait for all of them; a LOG whose
   [send] times out follows the armed retry rule. *)
let replicate t ~src ~send targets =
  ignore
    (Process.parallel t.engine
       (List.map
          (fun ((_, backup, _) as target) () ->
            settle_log t ~src ~backup (fun () -> send target) 1)
          targets))

(* The commit point. Un-armed, LOG records are born decided and COMMIT
   follows the LOG phase. Armed, the attempt first enters the commit
   fence (refused: release locks via [abort], retry), LOGs a pending
   decision, and then decides in one atomic step — no suspension
   between deciding and handing COMMIT to the transport, so a crash
   cannot split them. A coordinator that died mid-LOG never decides
   commit: backups discard its records, and its locks die with it or
   are swept at the declaration. *)
let commit_point t ~src ~epoch0 ~mark ~t_prev ~log ~commit ~abort : attempt =
  if not (armed t) then begin
    Attrib.set_phase "log";
    log (ref Dcommit);
    commit (mark "log" t_prev);
    `Committed
  end
  else if not (fence_acquire t ~src ~epoch0) then begin
    abort ();
    `Retry Metrics.Stale_epoch
  end
  else begin
    let decision = ref Dpending in
    Attrib.set_phase "log";
    log decision;
    let t_log = mark "log" t_prev in
    if t.crashed.(src) then begin
      decision := Dabort;
      fence_release t;
      `Aborted Metrics.Crashed_owner
    end
    else begin
      decision := Dcommit;
      commit t_log;
      fence_release t;
      `Committed
    end
  end

(* The attempt tail after execution (§4.2). A check-free attempt
   records no validate sample: zero-length marks would drag the
   reported mean to ~0 (the Fig 8/9 "validate: 0" bug). *)
let finish t ~src ~epoch0 ~mark ~t_prev ~id ~values ~lock_versions ~checks
    ~validate ~release ~log ~commit ops : attempt =
  let valid =
    if checks = [] then `Valid
    else begin
      Attrib.set_phase "validate";
      validate checks
    end
  in
  let t_prev = if checks = [] then t_prev else mark "validate" t_prev in
  match valid with
  | `Down ->
      release ();
      `Retry Metrics.Timeout
  | `Invalid ->
      release ();
      `Aborted Metrics.Validation_failure
  | `Valid when ops = [] ->
      release ();
      record_commit t ~id ~values ~lock_versions ~seq_ops:[];
      `Committed
  | `Valid ->
      let seq_ops = Types.seq_ops_of ~lock_versions ops in
      let by_shard = Types.group_ops_by_shard seq_ops in
      commit_point t ~src ~epoch0 ~mark ~t_prev ~log:(log by_shard)
        ~commit:(fun t_log ->
          record_commit t ~id ~values ~lock_versions ~seq_ops;
          Attrib.set_phase "commit";
          commit seq_ops by_shard;
          ignore (mark "commit" t_log))
        ~abort:release

(* ------------------------------------------------------------------ *)
(* Host-memory logs and the log-apply workers *)

type log_record = {
  lr_shard : int;
  lr_ops : (Op.t * int) list;
  lr_decision : decision ref;
  mutable lr_stamp : int;
}

let host_log t = Xenic_store.Hostlog.create t.engine ~capacity_b:log_capacity_b

let append_log log ~bytes ~shard ~ops decision =
  let record =
    { lr_shard = shard; lr_ops = ops; lr_decision = decision; lr_stamp = 0 }
  in
  record.lr_stamp <- Xenic_store.Hostlog.append log ~bytes record

let apply_cost (hw : Xenic_params.Hw.t) op =
  if Keyspace.ordered (Op.key op) then btree_op_ns
  else hw.host_op_ns +. (float_of_int (Op.bytes op) *. hw.host_byte_ns)

let log_worker t ~node ~log ~pool ~op_ns ~apply ~applied =
  Process.spawn t.engine (fun () ->
      Attrib.set { Attrib.stack = t.stack; node; phase = "log-apply"; cls = "-" };
      let rec loop () =
        let record, bytes = Xenic_store.Hostlog.poll log in
        if not (await_decision t record.lr_decision) then
          (* Aborted before the commit point: reclaim the space, apply
             nothing — every replica discards the same record. *)
          Xenic_store.Hostlog.ack log ~bytes
        else begin
          Resource.acquire pool;
          List.iter
            (fun (op, seq) ->
              Process.sleep t.engine (op_ns op);
              apply record op seq)
            record.lr_ops;
          Resource.release pool;
          Xenic_store.Hostlog.ack log ~bytes;
          applied record
        end;
        loop ()
      in
      loop ())

let drained logs = List.for_all (fun (_, l) -> Xenic_store.Hostlog.drained l) logs

(* Wait until every live node's logs are drained; crashed nodes' state
   died with them. *)
let rec quiesce t ~logs =
  let busy node crashed = not (crashed || drained (logs ~node)) in
  if Array.exists Fun.id (Array.mapi busy t.crashed) then begin
    Process.sleep t.engine 10_000.0;
    quiesce t ~logs
  end

(* Post-quiesce audit of every live node: no lock held, no log left
   undrained. *)
let audit t ~locked ~logs =
  List.concat
    (List.init (Array.length t.crashed) (fun node ->
         if t.crashed.(node) then []
         else
           List.map
             (fun (k, owner) ->
               Format.asprintf "%s node %d: key %a still locked by owner %d"
                 t.stack node Keyspace.pp k owner)
             (locked ~node)
           @ List.filter_map
               (fun (name, log) ->
                 if Xenic_store.Hostlog.drained log then None
                 else
                   Some (Printf.sprintf "%s node %d: %s not drained" t.stack node name))
               (logs ~node)))

(* ------------------------------------------------------------------ *)
(* Transaction outcome accounting *)

let run_txn t ~node attempt =
  let t_start = Engine.now t.engine in
  (* One taxonomy reason is counted per [Types.Aborted] returned to the
     caller (never per internal attempt), so reason counts always sum
     to this metrics object's aborted-transaction count. *)
  let abort_with reason =
    let latency_ns = Engine.now t.engine -. t_start in
    record_abort t ~latency_ns reason;
    (match t.telemetry with
    | None -> ()
    | Some tel ->
        Xenic_telemetry.Telemetry.record_abort tel
          ~label:(Attrib.get ()).Attrib.cls ~stack:t.stack ~node
          ~reason:(Metrics.abort_reason_name reason) ~latency_ns);
    trace_instant t ~cat:"txn" ~name:"abort" ~pid:node ~tid:t.txn_seq.(node)
      [ ("reason", Metrics.abort_reason_name reason) ];
    Types.Aborted
  in
  let commit () =
    let now = Engine.now t.engine in
    (* Outer transaction span ("txnlat"): the profiler slices it into
       the committed attempt's phase spans (same pid/tid) plus "other"
       gaps, so per-txn critical-path sums equal the recorded latency. *)
    (match t.trace with
    | None -> ()
    | Some tr ->
        Trace.span tr ~cat:"txnlat" ~name:"txn" ~pid:node
          ~tid:t.txn_seq.(node) ~ts:t_start ~dur:(now -. t_start)
          ~args:[ ("cls", (Attrib.get ()).Attrib.cls) ]
          ());
    Metrics.record (mx t) ~latency_ns:(now -. t_start) Types.Committed;
    (match t.telemetry with
    | None -> ()
    | Some tel ->
        Xenic_telemetry.Telemetry.record_commit tel
          ~label:(Attrib.get ()).Attrib.cls ~stack:t.stack ~node
          ~latency_ns:(now -. t_start));
    Types.Committed
  in
  if not (armed t) then begin
    if not t.alive.(node) then invalid_arg "run_txn: coordinator is dead";
    match attempt () with
    | `Committed -> commit ()
    | `Aborted reason -> abort_with reason
    | `Retry _ -> assert false
  end
  else
    (* Armed: retry attempts that ran into a dead peer, with
       exponential backoff so reconfiguration can complete. *)
    let rec go n backoff =
      if not (node_alive t ~node) then abort_with Metrics.Crashed_owner
      else
        match attempt () with
        | `Committed -> commit ()
        | `Aborted reason -> abort_with reason
        | `Retry reason ->
            Xenic_stats.Counter.incr (counters t) "txn_retries";
            trace_instant t ~cat:"txn" ~name:"retry" ~pid:node
              ~tid:t.txn_seq.(node)
              [ ("reason", Metrics.abort_reason_name reason) ];
            if n >= max_retries then abort_with reason
            else begin
              Process.sleep t.engine backoff;
              go (n + 1) (backoff *. 2.0)
            end
    in
    go 1 retry_backoff_ns

(* ------------------------------------------------------------------ *)
(* Requests *)

type transport = {
  depart : src:int -> dst:int -> bytes:int -> unit;
  send : src:int -> dst:int -> bytes:int -> (unit -> unit) -> unit;
  back : src:int -> dst:int -> bytes:int -> (unit -> unit) -> unit;
  reject : src:int -> dst:int -> bytes:int -> (unit -> unit) -> unit;
}

(* The crashed-target shortcut: the requester cannot know the peer is
   gone, so it pays the full deadline, exactly as if the request had
   been dropped. *)
let give_up t =
  Xenic_stats.Counter.incr (counters t) "req_timeouts";
  Process.sleep t.engine (Option.get t.req_timeout_ns);
  `Down

(* One request/response round trip over [tr]. Un-armed, the caller
   blocks until the response is back. Armed, it waits on an ivar with a
   cancellable deadline, and the timer resumes it exactly once with
   [`Down] if the response never arrives (dead destination, or a
   crashed [src] dropping it). With [epoch0] the request is
   epoch-fenced: a destination that sees a newer configuration rejects
   it, and a response landing after a reconfiguration is dropped; both
   are [`Down]. *)
let call t tr ?epoch0 ~src ~dst ~req_bytes ~resp_bytes handler =
  match t.req_timeout_ns with
  | None ->
      tr.depart ~src ~dst ~bytes:req_bytes;
      `Ok
        (Process.suspend (fun resume ->
             tr.send ~src ~dst ~bytes:req_bytes (fun () ->
                 let r = handler () in
                 tr.back ~src ~dst ~bytes:(resp_bytes r) (fun () -> resume r))))
  | Some timeout_ns ->
      if t.crashed.(dst) then give_up t
      else begin
        tr.depart ~src ~dst ~bytes:req_bytes;
        let iv = Ivar.create ~name:"request" t.engine in
        let settle v = if not (Ivar.is_filled iv) then Ivar.fill iv v in
        let stale () =
          match epoch0 with Some e -> t.epoch <> e | None -> false
        in
        tr.send ~src ~dst ~bytes:req_bytes (fun () ->
            if stale () then begin
              Xenic_stats.Counter.incr (counters t) "stale_epoch_rejects";
              tr.reject ~src ~dst ~bytes:Wire.small_resp_b (fun () ->
                  settle `Down)
            end
            else
              let r = handler () in
              tr.back ~src ~dst ~bytes:(resp_bytes r) (fun () ->
                  if stale () then begin
                    Xenic_stats.Counter.incr (counters t) "stale_epoch_drops";
                    settle `Down
                  end
                  else settle (`Ok r)));
        match Ivar.read_timeout iv ~timeout_ns with
        | Some r -> r
        | None ->
            Xenic_stats.Counter.incr (counters t) "req_timeouts";
            `Down
      end

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let dispatch_loop t ~node ~pkt_io =
  Process.spawn t.engine (fun () ->
      Attrib.set { Attrib.stack = t.stack; node; phase = "dispatch"; cls = "-" };
      let rx = Xenic_net.Fabric.rx t.fabric node in
      let rec loop () =
        let pkt = Mailbox.recv rx in
        (* A crashed node's NIC is gone: every frame addressed to it is
           lost, including responses to its own in-flight requests. The
           sender's timeout is what notices. *)
        if t.crashed.(node) then
          Xenic_stats.Counter.add (counters t) "msgs_dropped"
            (List.length pkt.Xenic_net.Packet.msgs)
        else begin
          pkt_io ();
          List.iter
            (fun m -> Process.spawn t.engine m.deliver)
            pkt.Xenic_net.Packet.msgs
        end;
        loop ()
      in
      loop ())

(* ------------------------------------------------------------------ *)
(* Reconfiguration (§4.2.1) *)

(* Locks held at surviving nodes by coordinators that died between
   their lock phase and release: the owner token encodes the
   coordinator, so they are identifiable and safe to break once the
   owner is declared dead. *)
let sweep_dead_owner_locks t ~sweep_locks =
  let dead owner = t.crashed.(Types.owner_coord owner) in
  Array.iteri
    (fun node crashed ->
      if not crashed then begin
        let broken = sweep_locks ~node ~dead in
        if broken > 0 then
          Xenic_stats.Counter.add (counters t) "recovery_lock_sweeps" broken
      end)
    t.crashed

(* Membership-driven recovery. Routing was frozen synchronously at the
   declaration (epoch bump + crashed flags); here we wait for in-flight
   commits to resolve — the fence refuses new ones while
   [recovery_waiting > 0] — then break dead coordinators' locks, drain
   each successor's backup log (every record is already decided, so
   this terminates), and promote. The brief write stall is the
   throughput dip the fault experiment measures. *)
let recover t ~sweep_locks ~successor_drained ~promote =
  wait_fence t;
  trace_instant t ~cat:"recovery" ~name:"recovery-start" ~pid:0 ~tid:0
    [ ("epoch", string_of_int t.epoch) ];
  sweep_dead_owner_locks t ~sweep_locks;
  Array.iteri
    (fun shard p ->
      if t.crashed.(p) then begin
        match
          List.find_opt
            (fun n -> t.alive.(n) && not t.crashed.(n))
            (Config.replicas t.cfg ~shard)
        with
        | None -> invalid_arg "recover: no live replica"
        | Some successor ->
            let rec drain () =
              if not (successor_drained ~node:successor) then begin
                Process.sleep t.engine 1_000.0;
                drain ()
              end
            in
            drain ();
            let np = promote ~shard ~successor in
            t.primaries.(shard) <- np;
            trace_instant t ~cat:"recovery" ~name:"promote" ~pid:np ~tid:0
              [ ("shard", string_of_int shard) ];
            Xenic_stats.Counter.incr (counters t) "recovery_promotions"
      end)
    t.primaries;
  t.recovery_waiting <- t.recovery_waiting - 1;
  trace_instant t ~cat:"recovery" ~name:"recovery-done" ~pid:0 ~tid:0
    [ ("epoch", string_of_int t.epoch) ]

let attach_membership t m ~sweep_locks ~successor_drained ~promote =
  if windowed t then
    invalid_arg
      "Control.attach_membership: a windowed system cannot attach membership";
  t.membership <- Some m;
  Membership.on_reconfigure m (fun ~epoch:_ ~dead ->
      (* Runs synchronously inside the manager's expiry check: routing
         freezes in one atomic step — no request started under the old
         epoch can cross it — then recovery proceeds in the
         background. *)
      t.epoch <- t.epoch + 1;
      trace_instant t ~cat:"recovery" ~name:"epoch-bump" ~pid:0 ~tid:0
        [ ("epoch", string_of_int t.epoch) ];
      List.iter
        (fun n ->
          t.alive.(n) <- false;
          t.crashed.(n) <- true)
        dead;
      t.recovery_waiting <- t.recovery_waiting + 1;
      Process.spawn t.engine (fun () ->
          recover t ~sweep_locks ~successor_drained ~promote))

(* Immediate, manual removal (for tests that promote between load
   phases): the node vanishes from routing and stops responding at
   once. With a membership service attached, its lease is failed too,
   so the declared view converges with ours. *)
let fail_node t ~node =
  t.alive.(node) <- false;
  t.crashed.(node) <- true;
  match t.membership with
  | Some m -> Membership.fail_node m ~node
  | None -> ()

(* Fault injection: the node's NIC and host stop responding at this
   instant, but nothing is declared yet — requests into it time out
   until the membership lease expires and drives reconfiguration. *)
let crash_node t ~node =
  if not t.crashed.(node) then begin
    Xenic_stats.Counter.incr (counters t) "node_crashes";
    trace_instant t ~cat:"recovery" ~name:"crash" ~pid:node ~tid:0 [];
    t.crashed.(node) <- true;
    match t.membership with
    | Some m -> Membership.fail_node m ~node
    | None ->
        (* No membership service: nothing would ever declare the node,
           so remove it from routing immediately. *)
        t.alive.(node) <- false
  end

let refuse_rejoin t ~node =
  Xenic_stats.Counter.incr (counters t) "rejoin_refused";
  trace_instant t ~cat:"recovery" ~name:"rejoin-refused" ~pid:node ~tid:0 []

let stop_background t =
  match t.membership with Some m -> Membership.stop m | None -> ()

(* -- Gray-failure hooks (scenario injection) ------------------------ *)

let net_enable_faults t ~seed ~rto_ns =
  Xenic_net.Fabric.enable_faults t.fabric ~seed ~rto_ns

let net_set_cut t ~src ~dst cut = Xenic_net.Fabric.set_cut t.fabric ~src ~dst cut

let net_set_loss t ~src ~dst p = Xenic_net.Fabric.set_loss t.fabric ~src ~dst p

let net_set_delay t ~src ~dst f = Xenic_net.Fabric.set_delay t.fabric ~src ~dst f
