open Xenic_sim
open Xenic_cluster

type via = In_process | In_place | Charged of ((unit -> unit) -> unit)

type msg = {
  bytes : int;
  ctx : Attrib.ctx;
  deliver : unit -> unit;
  via : via;
}

let message ~bytes via deliver = { bytes; ctx = Attrib.get (); deliver; via }

(* Commit decision for a LOG record, shared (one ref per transaction)
   between the coordinator and every backup that holds a copy. Backups
   apply only decided-committed records: a worker finding [Dpending]
   waits for the coordinator to decide, so a crash between partial LOG
   appends and the commit point cannot diverge the replicas — the
   coordinator resolves every record it caused to be appended, to
   [Dabort] if it bails out. Un-armed runs create records already
   decided, which preserves the original eager-apply behavior. *)
type decision = Dpending | Dcommit | Dabort

type outcome =
  [ `Committed
  | `Aborted of Metrics.abort_reason
  | `Retry of Metrics.abort_reason ]

(* One transaction as its coordinator runs it: [run_txn] draws each
   try's id into it, and every emission keyed on the attempt — phase
   samples and spans, the outer span, abort and retry instants — reads
   it, so one transaction's emissions share one key whatever else the
   coordinator runs meanwhile. *)
type attempt = {
  coord : int;
  mutable seq : int;  (* 0 until the first draw *)
  mutable owner : int;
  mutable open_phase : Metrics.phase;  (* open since [start] *)
  mutable start : float;
}

type log_record = {
  lr_shard : int;
  lr_ops : (Op.t * int) list;
  lr_decision : decision ref;
  mutable lr_stamp : int;
}

type t = {
  engine : Engine.t;
  hw : Xenic_params.Hw.t;  (* prices the log workers' applies *)
  cfg : Config.t;
  stack : string;
  fabric : msg Xenic_net.Fabric.t;
  armed : bool;
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
  log_appends : int array;
      (* per-node host-log appends, across all of the node's logs: the
         count half of {!append_log}'s stamp *)
  storage : Storage.t array;  (* node -> its replica store *)
  logs : (string * log_record Xenic_store.Hostlog.t) list array;
      (* node -> its host logs, named, in [host_log] order *)
  unsealed : bool array;  (* shard -> bulk-loaded since the last [seal] *)
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

(* Whole-transaction p99 is ~20us in the fault runs, so 40us per
   request sits above the worst-case round trip even with the scenario
   validator's bounded gray delay: a firing timeout implies a dead peer,
   never a slow one — a timeout against a live primary would leak its
   acquired locks until the next reconfiguration sweep. The lease is
   shorter, so promotion lands while coordinators back off. *)
let req_timeout_ns = 40_000.0

let lease_ns = 25_000.0

let create engine hw cfg ~stack ~partitions ~armed ~table =
  (* The windowed contract: fence, epoch and membership state is
     cross-partition, so a system on several partitions must stay
     un-armed. *)
  if partitions > 1 && armed then
    invalid_arg "Control.create: a windowed system cannot be armed";
  (* [partitions > 1] partitions the engine by node before any event
     exists: the open-loop driver has no cross-node shared state, so
     partitions can drain whole lookahead windows independently
     (lookahead = the wire latency every cross-node message already
     pays). Results are bit-identical for a fixed partition count
     regardless of domains. Otherwise the engine keeps its one
     partition whatever its domain budget. *)
  let nodes = cfg.Config.nodes in
  if partitions > 1 then begin
    if Engine.partitions engine > 1 then
      invalid_arg "Control.create: engine already has a topology";
    let partitions = min partitions nodes in
    Engine.set_topology engine ~lookahead:hw.Xenic_params.Hw.wire_latency_ns
      ~partitions
      ~node_partition:(fun node ->
        Config.partition_of_node cfg ~partitions ~node)
  end;
  let per_partition f =
    Array.init (Engine.partitions engine) (fun _ -> f ())
  in
  {
    engine;
    hw;
    cfg;
    stack;
    fabric = Xenic_net.Fabric.create engine hw ~nodes;
    armed;
    part_metrics = per_partition Metrics.create;
    part_oracle = per_partition Oracle.create;
    primaries = Array.init nodes (fun shard -> Config.primary cfg ~shard);
    alive = Array.make nodes true;
    crashed = Array.make nodes false;
    txn_seq = Array.make nodes 0;
    log_appends = Array.make nodes 0;
    storage = Array.init nodes (fun node -> Storage.create cfg ~node ~table);
    logs = Array.make nodes [];
    unsealed = Array.make nodes false;
    epoch = 0;
    inflight_commits = 0;
    recovery_waiting = 0;
    membership = None;
    oracle = None;
    trace = None;
    telemetry = None;
  }

(* ------------------------------------------------------------------ *)
(* Routing *)

let current_primary t ~shard = t.primaries.(shard)

let node_alive t ~node = t.alive.(node) && not t.crashed.(node)

(* ------------------------------------------------------------------ *)
(* Bulk load *)

(* A shard's replicas share one geometry and would see one insert
   sequence, so their hash tables would come out identical: the primary
   alone takes hash keys, and [seal] clones its tables to the backups. *)
let load t k v =
  let shard = Keyspace.shard k in
  t.unsealed.(shard) <- true;
  if Keyspace.ordered k then
    List.iter
      (fun node -> Storage.load t.storage.(node) k v)
      (Config.replicas t.cfg ~shard)
  else Storage.load t.storage.(Config.primary t.cfg ~shard) k v

let seal t =
  Array.iteri
    (fun shard unsealed ->
      if unsealed then begin
        let from = t.storage.(Config.primary t.cfg ~shard) in
        List.iter
          (fun backup -> Storage.clone_hash ~from t.storage.(backup) ~shard)
          (Config.backups t.cfg ~shard);
        t.unsealed.(shard) <- false
      end)
    t.unsealed

(* A plain loop: [run_txn] checks on every transaction, and must not
   allocate. *)
let check_sealed t =
  for shard = 0 to Array.length t.unsealed - 1 do
    if t.unsealed.(shard) then invalid_arg (t.stack ^ ": load without seal")
  done

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
  if Engine.partitions t.engine > 1 && Option.is_some tr then
    invalid_arg "Control.set_trace: a windowed system cannot be traced";
  t.trace <- tr

let set_telemetry t tel = t.telemetry <- tel

(* Phase/recovery events for the trace (no-ops with tracing off). *)
let trace_instant t ~cat ~name ~pid ~tid args =
  match t.trace with
  | None -> ()
  | Some tr -> Trace.instant tr ~cat ~name ~pid ~tid ~args ()

(* Phase [p] of [a], begun at [since], ends now: its latency histogram
   sample and, when tracing, a span in category [cat] on the
   coordinator's track keyed by the attempt's seq. Returns now. *)
let phase t a ~cat p since =
  let now = Engine.now t.engine in
  Metrics.record_phase (mx t) p (now -. since);
  (match t.trace with
  | None -> ()
  | Some tr ->
      Trace.span tr ~cat ~name:(Metrics.phase_name p) ~pid:a.coord ~tid:a.seq
        ~ts:since ~dur:(now -. since) ());
  now

(* Only [enter] moves a try's open phase, so the try's phases tile it. *)
let open_at a p now =
  a.open_phase <- p;
  a.start <- now;
  Attrib.set_phase (Metrics.phase_name p)

let close t a = phase t a ~cat:"txn" a.open_phase a.start

let enter t a p = open_at a p (close t a)

(* A fresh id from [a]'s coordinator's counter, for its owner token:
   owner tokens never collide across tries or replays. *)
let fresh_owner t a =
  let seq = t.txn_seq.(a.coord) + 1 in
  t.txn_seq.(a.coord) <- seq;
  a.owner <- Types.owner_token ~coord:a.coord ~seq;
  seq

(* A try takes the fresh id as its [seq], its trace track, and opens
   execute. *)
let fresh_try t a =
  a.seq <- fresh_owner t a;
  open_at a Metrics.Execute (Engine.now t.engine)

(* A replay stays on its try's track. *)
let replay t a =
  ignore (fresh_owner t a);
  enter t a Metrics.Execute

(* Off the critical path: category "txn-async", so critical-path
   extraction never counts it inside the transaction span. *)
let async t a p ~since body =
  Attrib.set_phase (Metrics.phase_name p);
  body ();
  ignore (phase t a ~cat:"txn-async" p since)

let set_oracle t o = t.oracle <- Some o

(* Flush the partition-local oracle buffers into the attached oracle,
   in partition-index order (deterministic for a fixed partition
   count). On several partitions, call between runs only — never while
   partitions may still be recording. A one-partition system has one
   shard, which its own events write, so there it may also be called
   from an event mid-run. *)
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

(* Armed LOG retry rule. LOG must not fail once the commit fence is
   held — the decision has effectively been taken — so a LOG that times
   out against a backup is resent (idempotent: sequence-guarded apply)
   until the backup is seen crashed: its copy died with it and it can
   never be promoted past the declaration, so the transaction's
   durability is unaffected. *)
let rec settle_log t ~src ~send ((_, backup, _) as target) n =
  if not (send target) then
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
    else settle_log t ~src ~send target (n + 1)

(* ------------------------------------------------------------------ *)
(* The commit protocol over any transport *)

(* The LOG fan-out: one [(shard, backup, writes)] per live backup of
   each written shard, shards in the order given. *)
let rec log_targets t = function
  | [] -> []
  | (shard, seq_ops) :: rest ->
      shard_targets t shard seq_ops t.primaries.(shard)
        (Config.replicas t.cfg ~shard) rest

(* [shard]'s live backups (its replicas but the current primary and
   dead nodes), then the shards after it. *)
and shard_targets t shard seq_ops primary replicas rest =
  match replicas with
  | [] -> log_targets t rest
  | n :: more ->
      if n <> primary && t.alive.(n) then
        (shard, n, seq_ops) :: shard_targets t shard seq_ops primary more rest
      else shard_targets t shard seq_ops primary more rest

let rec log_sends t ~src ~send = function
  | [] -> []
  | target :: rest ->
      (fun () -> settle_log t ~src ~send target 1) :: log_sends t ~src ~send rest

(* Send every LOG in parallel and wait for all of them; a LOG whose
   [send] times out follows the armed retry rule. *)
let replicate t ~src ~send targets =
  ignore (Process.parallel t.engine (log_sends t ~src ~send targets))

(* The commit point. Un-armed, LOG records are born decided and COMMIT
   follows the LOG phase. Armed, the attempt first enters the commit
   fence (refused: release locks via [abort], retry), LOGs a pending
   decision, and then decides in one atomic step — no suspension
   between deciding and handing COMMIT to the transport, so a crash
   cannot split them. A coordinator that died mid-LOG never decides
   commit: backups discard its records, and its locks die with it or
   are swept at the declaration. *)
let commit_point t a ~epoch0 ~log ~commit ~abort : outcome =
  if not t.armed then begin
    enter t a Metrics.Log;
    log (ref Dcommit);
    enter t a Metrics.Commit;
    commit ();
    `Committed
  end
  else if not (fence_acquire t ~src:a.coord ~epoch0) then begin
    abort ();
    `Retry Metrics.Stale_epoch
  end
  else begin
    let decision = ref Dpending in
    enter t a Metrics.Log;
    log decision;
    if t.crashed.(a.coord) then begin
      decision := Dabort;
      fence_release t;
      `Aborted Metrics.Crashed_owner
    end
    else begin
      decision := Dcommit;
      enter t a Metrics.Commit;
      commit ();
      fence_release t;
      `Committed
    end
  end

(* The attempt tail after execution (§4.2). A check-free attempt never
   enters validate, so it records no validate sample: zero-length
   samples would drag the reported mean to ~0 (the Fig 8/9 "validate:
   0" bug). A read-only attempt's release is its commit. *)
let finish t a ~epoch0 ~values ~lock_versions ~checks ~validate ~release
    ~log ~commit ops : outcome =
  let valid =
    if checks = [] then `Valid
    else begin
      enter t a Metrics.Validate;
      validate checks
    end
  in
  match valid with
  | `Down ->
      release ();
      `Retry Metrics.Timeout
  | `Invalid ->
      release ();
      `Aborted Metrics.Validation_failure
  | `Valid when ops = [] ->
      enter t a Metrics.Commit;
      release ();
      record_commit t ~id:a.owner ~values ~lock_versions ~seq_ops:[];
      `Committed
  | `Valid ->
      let seq_ops = Types.seq_ops_of ~lock_versions ops in
      let by_shard = Types.group_ops_by_shard seq_ops in
      commit_point t a ~epoch0 ~log:(log by_shard)
        ~commit:(fun () ->
          record_commit t ~id:a.owner ~values ~lock_versions ~seq_ops;
          commit seq_ops by_shard)
        ~abort:release

(* ------------------------------------------------------------------ *)
(* Host-memory logs and the log-apply workers *)

let host_log t ~node ~name =
  let log = Xenic_store.Hostlog.create t.engine ~capacity_b:log_capacity_b in
  t.logs.(node) <- t.logs.(node) @ [ (name, log) ];
  log

(* The apply order of ordered-table writes, packed into one int so the
   per-key comparison allocates nothing: the configuration epoch at
   append, then the node's append count. The epoch puts a promoted
   primary's COMMIT records after the backup-log records of every
   earlier configuration. The count runs across all of a node's logs,
   not per log, so it also orders a LOG appended after an epoch bump
   (by a transaction that passed the commit fence before it) against
   the COMMIT records that follow the promotion in the same epoch. Un-armed
   runs stay at epoch 0, and each key reaches a node through one log
   only, so their apply order is the per-log append order it always
   was. *)
let stamp_bits = 40

let append_log t ~node log ~bytes ~shard ~ops decision =
  let record =
    { lr_shard = shard; lr_ops = ops; lr_decision = decision; lr_stamp = 0 }
  in
  Xenic_store.Hostlog.append log ~bytes record;
  let n = t.log_appends.(node) + 1 in
  t.log_appends.(node) <- n;
  record.lr_stamp <- (t.epoch lsl stamp_bits) lor n

(* Host cost of applying one write. *)
let apply_cost (hw : Xenic_params.Hw.t) op =
  if Keyspace.ordered (Op.key op) then btree_op_ns
  else hw.host_op_ns +. (float_of_int (Op.bytes op) *. hw.host_byte_ns)

(* What one log-apply worker is working on: the record, its log bytes
   and the writes not yet applied. *)
type cursor = {
  mutable record : log_record;
  mutable bytes : int;
  mutable remaining : (Op.t * int) list;
}

(* A callback chain, not a process: each step is the engine event a
   blocking worker would resume in, scheduled at the same point (a
   write's [Engine.after] where its sleep scheduled the wake-up), so the
   order of events is unchanged. The steps are built once with the
   worker and share its one [cursor]; each step the engine enters
   installs the worker's context and restores the ambient one.

   Backup side of the decision protocol: an undecided record is
   re-checked every 500 ns. The coordinator that caused the append
   always resolves it (to [Dabort] if it bails out after a crash), so
   the wait is bounded by an ack round trip. *)
let log_worker t ~node ~log ~pool ~applied =
  let storage = t.storage.(node) in
  let ctx = { Attrib.stack = t.stack; node; phase = "log-apply"; cls = "-" } in
  let cur =
    {
      record = { lr_shard = -1; lr_ops = []; lr_decision = ref Dabort; lr_stamp = 0 };
      bytes = 0;
      remaining = [];
    }
  in
  let in_ctx step =
    let ambient = Attrib.swap ctx in
    step ();
    Attrib.set ambient
  in
  let rec next () = Xenic_store.Hostlog.poll_then log on_record
  and on_record r bytes =
    cur.record <- r;
    cur.bytes <- bytes;
    in_ctx decide
  and decide () =
    match !(cur.record.lr_decision) with
    | Dcommit -> Resource.acquire_then pool granted
    | Dabort ->
        (* Aborted before the commit point: reclaim the space, apply
           nothing — every replica discards the same record. *)
        Xenic_stats.Counter.incr (counters t) "log_discards";
        Xenic_store.Hostlog.ack log ~bytes:cur.bytes;
        next ()
    | Dpending -> Engine.after t.engine 500.0 recheck
  and recheck () = in_ctx decide
  and granted () =
    cur.remaining <- cur.record.lr_ops;
    in_ctx apply_next
  and apply_next () =
    match cur.remaining with
    | (op, _) :: _ -> Engine.after t.engine (apply_cost t.hw op) wrote
    | [] ->
        Resource.release_as pool ctx;
        Xenic_store.Hostlog.ack log ~bytes:cur.bytes;
        applied cur.record;
        next ()
  and wrote () = in_ctx apply_head
  and apply_head () =
    (match cur.remaining with
    | (op, seq) :: rest ->
        Storage.apply storage op ~seq ~stamp:cur.record.lr_stamp;
        cur.remaining <- rest
    | [] -> ());
    apply_next ()
  in
  next ()

let drained logs = List.for_all (fun (_, l) -> Xenic_store.Hostlog.drained l) logs

(* Wait until every live node's logs are drained; crashed nodes' state
   died with them. *)
let rec quiesce t =
  let busy node crashed = not (crashed || drained t.logs.(node)) in
  if Array.exists Fun.id (Array.mapi busy t.crashed) then begin
    Process.sleep t.engine 10_000.0;
    quiesce t
  end

(* Post-quiesce audit of every live node: no lock held, no log left
   undrained. *)
let audit t ~locked =
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
               t.logs.(node)))

(* ------------------------------------------------------------------ *)
(* Transaction outcome accounting *)

(* One taxonomy reason is counted per [Types.Aborted] returned to the
   caller (never per internal attempt), so reason counts always sum to
   this metrics object's aborted-transaction count. *)
let abort_with t a ~t_start reason =
  let latency_ns = Engine.now t.engine -. t_start in
  record_abort t ~latency_ns reason;
  (match t.telemetry with
  | None -> ()
  | Some tel ->
      Xenic_telemetry.Telemetry.record_abort tel
        ~label:(Attrib.get ()).Attrib.cls ~stack:t.stack ~node:a.coord
        ~reason:(Metrics.abort_reason_name reason) ~latency_ns);
  trace_instant t ~cat:"txn" ~name:"abort" ~pid:a.coord ~tid:a.seq
    [ ("reason", Metrics.abort_reason_name reason) ];
  Types.Aborted

let commit t a ~t_start =
  let now = Engine.now t.engine in
  (* Outer transaction span ("txnlat"): the profiler slices it into the
     committed attempt's phase spans (same pid/tid) plus "other" gaps,
     so per-txn critical-path sums equal the recorded latency. *)
  (match t.trace with
  | None -> ()
  | Some tr ->
      Trace.span tr ~cat:"txnlat" ~name:"txn" ~pid:a.coord ~tid:a.seq
        ~ts:t_start ~dur:(now -. t_start)
        ~args:[ ("cls", (Attrib.get ()).Attrib.cls) ]
        ());
  Metrics.record (mx t) ~latency_ns:(now -. t_start) Types.Committed;
  (match t.telemetry with
  | None -> ()
  | Some tel ->
      Xenic_telemetry.Telemetry.record_commit tel
        ~label:(Attrib.get ()).Attrib.cls ~stack:t.stack ~node:a.coord
        ~latency_ns:(now -. t_start));
  Types.Committed

(* Each try in turn. Armed: retry attempts that ran into a dead peer,
   with exponential backoff so reconfiguration can complete; un-armed,
   there is one try and no dead coordinator. *)
let rec retry t body a ~t_start n backoff =
  if not (node_alive t ~node:a.coord) then
    if t.armed then abort_with t a ~t_start Metrics.Crashed_owner
    else invalid_arg "run_txn: coordinator is dead"
  else begin
    fresh_try t a;
    let outcome = body a in
    ignore (close t a);
    match outcome with
    | `Committed -> commit t a ~t_start
    | `Aborted reason -> abort_with t a ~t_start reason
    | `Retry reason ->
        assert t.armed;
        Xenic_stats.Counter.incr (counters t) "txn_retries";
        trace_instant t ~cat:"txn" ~name:"retry" ~pid:a.coord ~tid:a.seq
          [ ("reason", Metrics.abort_reason_name reason) ];
        if n >= max_retries then abort_with t a ~t_start reason
        else begin
          Process.sleep t.engine backoff;
          retry t body a ~t_start (n + 1) (backoff *. 2.0)
        end
  end

let run_txn t ~node body =
  check_sealed t;
  let t_start = Engine.now t.engine in
  let a =
    { coord = node; seq = 0; owner = 0; open_phase = Execute; start = t_start }
  in
  retry t body a ~t_start 1 retry_backoff_ns

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
let give_up_then t k =
  Xenic_stats.Counter.incr (counters t) "req_timeouts";
  Engine.after t.engine req_timeout_ns k

let give_up t =
  Process.suspend (give_up_then t);
  `Down

(* Where a request's caller is: inside [issue]'s [send], suspended
   (with its deadline set, armed), waiting for the settle hop (armed),
   resumed. *)
type caller = Sending | Waiting | Landed | Resumed

(* One request in flight, from [call] to the caller's resumption:
   what its delivery, answer and deadline need, in one record. [step]
   is its one continuation, built once in [issue]: the transport runs it
   at [dst], where it serves, then at [src], where the answer lands,
   and armed once more, in the settle hop. [answer] is [`Asked] until
   [dst] answers. *)
type 'r request = {
  ctl : t;
  tr : transport;
  src : int;
  dst : int;
  req_bytes : int;
  epoch0 : int option;
  resp_bytes : 'r -> int;
  handler : unit -> 'r;
  mutable answer : [ `Asked | `Ok of 'r | `Down ];
  mutable caller : caller;
  mutable resume : [ `Ok of 'r | `Down ] -> unit;
  mutable step : unit -> unit;
}

let stale rq =
  match rq.epoch0 with Some e -> rq.ctl.epoch <> e | None -> false

(* The answer resumes the caller once, and never after its deadline.
   Armed, a suspended caller resumes in an event of its own right after
   the answer's, the settle hop; an answer that lands while [send] is
   still running (a node's request to itself, refused at once) resumes
   it in place. *)
let settle rq v =
  match rq.caller with
  | Waiting when rq.ctl.armed ->
      rq.caller <- Landed;
      Engine.after rq.ctl.engine 0.0 rq.step
  | Sending | Waiting ->
      rq.caller <- Resumed;
      rq.resume v
  | Landed | Resumed -> ()

let expire rq () =
  if rq.caller = Waiting then begin
    rq.caller <- Resumed;
    Xenic_stats.Counter.incr (counters rq.ctl) "req_timeouts";
    rq.resume `Down
  end

(* At [dst]: a stale request is refused, any other one handled and
   answered. *)
let serve rq =
  if stale rq then begin
    Xenic_stats.Counter.incr (counters rq.ctl) "stale_epoch_rejects";
    rq.answer <- `Down;
    rq.tr.reject ~src:rq.src ~dst:rq.dst ~bytes:Wire.small_resp_b rq.step
  end
  else begin
    let r = rq.handler () in
    rq.answer <- `Ok r;
    rq.tr.back ~src:rq.src ~dst:rq.dst ~bytes:(rq.resp_bytes r) rq.step
  end

(* At [src], a response landing after a reconfiguration is dropped. *)
let step rq () =
  match (rq.answer, rq.caller) with
  | `Asked, _ -> serve rq
  | ((`Ok _ | `Down) as v), Landed ->
      rq.caller <- Resumed;
      rq.resume v
  | `Ok _, _ when stale rq ->
      Xenic_stats.Counter.incr (counters rq.ctl) "stale_epoch_drops";
      rq.answer <- `Down;
      settle rq `Down
  | ((`Ok _ | `Down) as v), _ -> settle rq v

(* Runs inside the caller's suspension, so [resume] is in place before
   anything is sent. The deadline starts once [send] returns, unless
   the answer is already in. *)
let issue rq resume =
  rq.resume <- resume;
  rq.step <- (fun () -> step rq ());
  rq.tr.send ~src:rq.src ~dst:rq.dst ~bytes:rq.req_bytes rq.step;
  if rq.caller = Sending then begin
    rq.caller <- Waiting;
    if rq.ctl.armed then
      Engine.after rq.ctl.engine req_timeout_ns (expire rq)
  end

(* One request/response round trip over [tr]: the caller blocks until
   the answer is back. Arming adds the crashed-destination [give_up],
   the deadline, and the settle hop. With [epoch0] the request is
   epoch-fenced: a destination that sees a newer configuration rejects
   it, and a response landing after a reconfiguration is dropped; both
   are [`Down]. Un-armed, the epoch never moves. *)
let call t tr ?epoch0 ~src ~dst ~req_bytes ~resp_bytes handler =
  if t.armed && t.crashed.(dst) then give_up t
  else begin
    tr.depart ~src ~dst ~bytes:req_bytes;
    let rq =
      {
        ctl = t;
        tr;
        src;
        dst;
        req_bytes;
        epoch0;
        resp_bytes;
        handler;
        answer = `Asked;
        caller = Sending;
        resume = ignore;
        step = ignore;
      }
    in
    Process.suspend (fun resume -> issue rq resume)
  end

(* ------------------------------------------------------------------ *)
(* Dispatch *)

(* The one delivery rule, for the dispatch loop and for a sender's
   [src = dst] shortcut alike: a request handler in a fresh process, a
   reply in place or after its charge. *)
let run_via t via k =
  match via with
  | In_process -> Process.spawn t.engine k
  | In_place -> k ()
  | Charged charge -> charge k

(* A callback chain, not a process: a frame's arrival, its packet-I/O
   hold and its deliveries are the same engine events a blocking loop
   would run, at the same (time, seq). Frames are handled one at a
   time, so the frame holding the packet-I/O path waits in the node's
   one [current] slot and the hold's end is [io_done], built once with
   the loop. [pump] parks [waiter], the receiver of [on_frame] built
   once with the loop: a queued frame reaches it at once, and so on
   until one waits on the path or the mailbox is empty. Each message
   is delivered by [run_via], under the context it carries. [no_frame]
   fills the waiter's hand-over slot between frames. *)
let no_frame = { Xenic_net.Packet.src = -1; dst = -1; wire_bytes = 0; msgs = [] }

let dispatch_loop t ~node ~pkt_io =
  let ctx = { Attrib.stack = t.stack; node; phase = "dispatch"; cls = "-" } in
  let rx = Xenic_net.Fabric.rx t.fabric node in
  let current = ref [] in
  let rec pump () = Mailbox.park rx (Lazy.force waiter)
  and frame (pkt : msg Xenic_net.Packet.t) =
    (* A crashed node's NIC is gone: every frame addressed to it is
       lost, including responses to its own in-flight requests. The
       sender's timeout is what notices. *)
    if t.crashed.(node) then begin
      Xenic_stats.Counter.add (counters t) "msgs_dropped"
        (List.length pkt.msgs);
      pump ()
    end
    else
      match pkt_io with
      | None -> deliver pkt.msgs
      | Some (path, cost_ns) ->
          current := pkt.msgs;
          Resource.hold_then path ctx (cost_ns ()) io_done
  and io_done () =
    let ambient = Attrib.get () in
    (match pkt_io with
    | Some (path, _) -> Resource.release_as path ctx
    | None -> ());
    let msgs = !current in
    current := [];
    deliver msgs;
    Attrib.set ambient
  and deliver = function
    | [] ->
        Attrib.set ctx;
        pump ()
    | m :: rest ->
        Attrib.set m.ctx;
        run_via t m.via m.deliver;
        deliver rest
  and on_frame pkt =
    let ambient = Attrib.swap ctx in
    frame pkt;
    Attrib.set ambient
  and waiter = lazy (Mailbox.waiter ~dummy:no_frame on_frame) in
  pump ()

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
   throughput dip the fault experiment measures. The backup log is the
   successor's first host log. *)
let recover t ~sweep_locks ~promote =
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
            let backup_log = snd (List.hd t.logs.(successor)) in
            let rec drain () =
              if not (Xenic_store.Hostlog.drained backup_log) then begin
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

(* An armed stack's last construction step: every process of [create]
   is spawned before the membership's renewal and expiry loops. *)
let attach_membership t ~sweep_locks ~promote =
  let m = Membership.create t.engine t.cfg ~lease_ns in
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
          recover t ~sweep_locks ~promote));
  Membership.start m

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
