(** The protocol core both stacks share (§4.2, §4.2.1): routing, epoch
    and commit fence, the request round trip with its deadline and
    epoch fence, the attempt tail after execution (validate, commit
    point, COMMIT), LOG fan-out and its retry rule, the
    host-memory log records and their apply workers, failover recovery,
    transaction outcome accounting, the oracle report, the post-run
    audit, and the metrics/oracle sharding of windowed runs.

    {!Xenic_system} and {!Rdma_system} each embed one [t] and keep only
    their transports — NIC requests versus RPCs and one-sided verbs —
    with their handlers and stores. Control calls back into them, as a
    {!transport} record or as plain function arguments, wherever the
    transport or store differs: how a request and its response move
    ({!call}), how reads are validated, a LOG sent and COMMIT applied
    ({!finish}, {!commit_point}, {!replicate}), how a log record is
    applied ({!log_worker}), which locks and logs a node holds
    ({!audit}, {!quiesce}), the recovery hooks given to
    {!attach_membership}, the per-packet NIC charge of
    {!dispatch_loop}, and the per-attempt body of {!run_txn}.

    {b Shards.} Metrics and the oracle feed are sharded per engine
    partition — one shard on an unpartitioned (single-heap) engine.

    {b Windowed contract.} With [partitions > 0] the epoch, fence and
    liveness state is cross-partition: such a system must stay
    un-armed and attach no membership and no trace. {!create},
    {!attach_membership} and {!set_trace} raise [Invalid_argument]
    otherwise. *)

open Xenic_cluster

(** A message between nodes: its wire size and the handler run at the
    destination. *)
type msg = { bytes : int; deliver : unit -> unit }

(** Commit decision shared by every LOG record of one transaction.
    Backups apply only [Dcommit] records; the coordinator resolves
    every record it caused to be appended. *)
type decision = Dpending | Dcommit | Dabort

(** One transaction attempt's result. [`Retry]: it ran into a dead or
    reconfigured peer, released its locks, and should run again against
    fresh routing (armed mode only). *)
type attempt =
  [ `Committed
  | `Aborted of Metrics.abort_reason
  | `Retry of Metrics.abort_reason ]

type t = {
  engine : Xenic_sim.Engine.t;
  cfg : Config.t;
  stack : string;  (** Telemetry and attribution label. *)
  fabric : msg Xenic_net.Fabric.t;
  req_timeout_ns : float option;  (** [Some _]: armed. *)
  part_metrics : Metrics.t array;
      (** Per-partition shards; one when unpartitioned. *)
  part_oracle : Oracle.t array;
      (** Per-partition buffers, flushed by {!sync}; one when
          unpartitioned. *)
  primaries : int array;  (** Shard -> current primary. *)
  alive : bool array;  (** Routing view: false once removed. *)
  crashed : bool array;  (** Ground truth: true from the crash instant. *)
  txn_seq : int array;  (** Per-coordinator attempt counter. *)
  mutable epoch : int;  (** Bumped on every reconfiguration. *)
  mutable inflight_commits : int;  (** Attempts holding the commit fence. *)
  mutable recovery_waiting : int;  (** Pending recoveries; close the fence. *)
  mutable membership : Membership.t option;
  mutable oracle : Oracle.t option;
  mutable trace : Xenic_sim.Trace.t option;
  mutable telemetry : Xenic_telemetry.Telemetry.t option;
}

(** With [partitions > 0], install a windowed partition topology on the
    engine (lookahead = wire latency); otherwise the engine stays
    single-heap whatever its domain budget. Then create the fabric and
    the control state. Must run before any event is scheduled. *)
val create :
  Xenic_sim.Engine.t ->
  Xenic_params.Hw.t ->
  Config.t ->
  stack:string ->
  partitions:int ->
  req_timeout_ns:float option ->
  t

val armed : t -> bool

(** {2 Routing} *)

val current_primary : t -> shard:int -> int

(** Neither declared dead nor crashed. *)
val node_alive : t -> node:int -> bool

(** Bump [node]'s attempt counter and return the new attempt's id. *)
val next_id : t -> node:int -> Types.txn_id

(** {2 Metrics, trace, telemetry, oracle} *)

(** The metrics shard the current event records into: its
    partition's. *)
val mx : t -> Metrics.t

(** Reported metrics: a snapshot, the shards merged into a fresh object
    in partition-index order on every call. Later recording does not
    show in an earlier snapshot. *)
val metrics : t -> Metrics.t

val counters : t -> Xenic_stats.Counter.t

(** Attach (or detach, with [None]) a trace: protocol phases become
    spans on the coordinator's track, aborts, retries and recovery
    steps become instant events. *)
val set_trace : t -> Xenic_sim.Trace.t option -> unit

(** Attach (or detach) a telemetry flight recorder for commits and
    aborts-by-reason. Event-free. *)
val set_telemetry : t -> Xenic_telemetry.Telemetry.t option -> unit

val trace_instant :
  t -> cat:string -> name:string -> pid:int -> tid:int ->
  (string * string) list -> unit

(** [phase_mark t ~src ~seq name t_prev] closes the phase begun at
    [t_prev] (latency sample, and a trace span in category [cat],
    default ["txn"], on [src]'s track); returns the current time. *)
val phase_mark :
  ?cat:string -> t -> src:int -> seq:int -> string -> float -> float

(** Attach a serializability oracle fed by every commit. *)
val set_oracle : t -> Oracle.t -> unit

(** Flush partition oracle buffers into the attached oracle, in
    partition-index order; commits reach the attached oracle only
    through it. On a windowed engine, call between runs only. An
    unpartitioned system runs on one heap, so there it may also be
    called from an event mid-run. *)
val sync : t -> unit

(** Record a commit in the attached oracle, if any: [values] are the
    keys read with the value and version seen, [lock_versions] the keys
    locked (those not also in [values] are recorded version-only), and
    [seq_ops] the writes with their installed versions. [id] is the
    attempt's owner token. *)
val record_commit :
  t ->
  id:int ->
  values:(Keyspace.t * bytes option * int) list ->
  lock_versions:(Keyspace.t * int) list ->
  seq_ops:(Op.t * int) list ->
  unit

(** Count one admission-control shed as an abort with reason
    {!Metrics.Shed}; [latency_ns] is its time queued. *)
val record_shed : t -> latency_ns:float -> unit

(** {2 The commit protocol} *)

(** Block until no attempt holds the commit fence. *)
val wait_fence : t -> unit

(** [commit_point t ~src ~epoch0 ~mark ~t_prev ~log ~commit ~abort]
    runs one attempt from the end of validation to its outcome:
    [log d] sends the LOG records carrying decision [d], [commit t_log]
    sends COMMIT and releases locks ([t_log]: the time the LOG phase
    closed), [abort ()] releases locks. [mark name t_prev] closes a
    phase (see {!phase_mark}); the phase attribution is set to ["log"]
    before [log].

    Un-armed, the records are born [Dcommit] and the result is
    [`Committed]. Armed, the attempt first enters the commit fence:
    refused (counted [fence_refusals]) when [src] crashed or the epoch
    moved on from [epoch0], it calls [abort] and returns
    [`Retry Stale_epoch]; it waits while a recovery is pending. The
    records then start [Dpending]. If [src] crashed during [log], the
    decision becomes [Dabort] and the result is
    [`Aborted Crashed_owner]; otherwise it becomes [Dcommit] and
    [commit] runs with no suspension in between. The fence is released
    before returning. *)
val commit_point :
  t ->
  src:int ->
  epoch0:int ->
  mark:(string -> float -> float) ->
  t_prev:float ->
  log:(decision ref -> unit) ->
  commit:(float -> unit) ->
  abort:(unit -> unit) ->
  attempt

(** [finish t ~src ~epoch0 ~mark ~t_prev ~id ~values ~lock_versions
    ~checks ~validate ~release ~log ~commit ops] ends an attempt whose
    execution read [values], locked [lock_versions] and produced [ops];
    [checks] are the keys read but not locked, with the versions read.

    With [checks <> []] it sets the phase to ["validate"], runs
    [validate checks] and marks ["validate"]. [`Down] and [`Invalid]
    call [release ()] and return [`Retry Timeout] and
    [`Aborted Validation_failure]. With [ops = []], [release ()] runs
    and the commit is recorded read-only. Otherwise the versioned
    writes and their by-shard grouping go through {!commit_point} with
    [log by_shard]; its commit step records the commit, sets the phase
    to ["commit"], runs [commit seq_ops by_shard] and marks
    ["commit"]. *)
val finish :
  t ->
  src:int ->
  epoch0:int ->
  mark:(string -> float -> float) ->
  t_prev:float ->
  id:int ->
  values:(Keyspace.t * bytes option * int) list ->
  lock_versions:(Keyspace.t * int) list ->
  checks:(Keyspace.t * int) list ->
  validate:((Keyspace.t * int) list -> [ `Valid | `Invalid | `Down ]) ->
  release:(unit -> unit) ->
  log:((int * (Op.t * int) list) list -> decision ref -> unit) ->
  commit:((Op.t * int) list -> (int * (Op.t * int) list) list -> unit) ->
  Op.t list ->
  attempt

(** The LOG fan-out of [(shard, writes)]: one [(shard, backup, writes)]
    per live backup of each shard other than its primary, in shard
    order. *)
val log_targets : t -> (int * 'w) list -> (int * int * 'w) list

(** Send every target's LOG in parallel and wait for all. [send target]
    delivers one, returning [false] on a timeout; it is then resent
    until it succeeds, the coordinator [src] is seen crashed
    ([log_from_dead_coord]) or the backup is ([log_to_dead_backup]).
    Fails with ["<stack>: LOG to a live backup timed out repeatedly"]
    after 8 attempts. *)
val replicate :
  t -> src:int -> send:(int * int * 'w -> bool) -> (int * int * 'w) list -> unit

(** {2 Host-memory logs} *)

(** A LOG or COMMIT record in a host-memory log. Which log it sits in
    tells its kind. *)
type log_record = {
  lr_shard : int;
  lr_ops : (Op.t * int) list;  (** Writes with their new versions. *)
  lr_decision : decision ref;
      (** Shared by every copy of one transaction's records. *)
  mutable lr_stamp : int;
      (** Append order in its log, for ordered-table write ordering.
          Set by {!append_log}; delivery to workers is deferred, so it
          is set before any worker reads it. *)
}

(** A fresh host-memory log of 4 MiB. *)
val host_log : t -> log_record Xenic_store.Hostlog.t

(** Append a record of [ops] (blocking while the log is full) and stamp
    it with its append index. The caller charges the DMA or WRITE. *)
val append_log :
  log_record Xenic_store.Hostlog.t ->
  bytes:int ->
  shard:int ->
  ops:(Op.t * int) list ->
  decision ref ->
  unit

(** Host cost of applying one write: 300 ns for ordered keys, per-op
    plus per-byte host cost otherwise. *)
val apply_cost : Xenic_params.Hw.t -> Op.t -> float

(** Spawn one log-apply worker for [node]'s [log]. It polls a record
    and waits for its decision: a [Dabort] record is acknowledged
    unapplied (counted [log_discards]). A [Dcommit] record is applied
    holding one server of [pool]: per write, sleep [op_ns op], then
    [apply record op seq]. The worker then acknowledges the record and
    calls [applied record]. *)
val log_worker :
  t ->
  node:int ->
  log:log_record Xenic_store.Hostlog.t ->
  pool:Xenic_sim.Resource.t ->
  op_ns:(Op.t -> float) ->
  apply:(log_record -> Op.t -> int -> unit) ->
  applied:(log_record -> unit) ->
  unit

(** Block until every live node's [logs ~node] are drained. *)
val quiesce :
  t -> logs:(node:int -> (string * log_record Xenic_store.Hostlog.t) list) -> unit

(** Protocol audit, meant to run after {!quiesce}: at every live node,
    each lock in [locked ~node] ([(key, owner)]) and each named log in
    [logs ~node] not drained is a violation. Returns them in node
    order, human-readable; [[]] = clean. *)
val audit :
  t ->
  locked:(node:int -> (Keyspace.t * int) list) ->
  logs:(node:int -> (string * log_record Xenic_store.Hostlog.t) list) ->
  string list

(** {2 Transactions} *)

(** [run_txn t ~node attempt] runs one transaction coordinated at
    [node], one [attempt ()] per try, and accounts its outcome
    (metrics, abort reason, telemetry, outer trace span). Armed:
    retries back off exponentially from 30 µs, up to 10 attempts, and
    a dead coordinator aborts with {!Metrics.Crashed_owner}. Un-armed:
    a dead coordinator raises [Invalid_argument]. *)
val run_txn : t -> node:int -> (unit -> attempt) -> Types.outcome

(** {2 Requests}

    One request/response round trip, with its deadline and epoch fence,
    over a stack's transport. *)

(** How a stack moves one request and its response. In every field
    [src] is the requester and [dst] the responder. Each stack builds
    one in [create]. *)
type transport = {
  depart : src:int -> dst:int -> bytes:int -> unit;
      (** Charged in the requester's process before the request leaves. *)
  send : src:int -> dst:int -> bytes:int -> (unit -> unit) -> unit;
      (** Send the request without blocking; the thunk runs at [dst]
          once it is delivered there. *)
  back : src:int -> dst:int -> bytes:int -> (unit -> unit) -> unit;
      (** Send the response from the handler at [dst]; the thunk runs
          at [src] after its receive charge. *)
  reject : src:int -> dst:int -> bytes:int -> (unit -> unit) -> unit;
      (** Answer a request [dst] refused as stale; the thunk tells the
          requester. *)
}

(** The crashed-target shortcut of an armed system: count one
    [req_timeouts], sleep the full timeout and return [`Down], exactly
    as if the request had been dropped. Raises [Invalid_argument] when
    un-armed. *)
val give_up : t -> [> `Down ]

(** [call t tr ?epoch0 ~src ~dst ~req_bytes ~resp_bytes handler] sends
    a request of [req_bytes] from [src] to [dst], runs [handler] at
    [dst] and returns its result in a response of [resp_bytes r] bytes.

    Un-armed: [depart], [send], [handler], [back], and the caller
    blocks until the response is back; always [`Ok].

    Armed: a crashed [dst] is {!give_up}. Otherwise the caller waits
    at most [req_timeout_ns] and then returns [`Down], counted
    [req_timeouts]; a response arriving later is ignored. With
    [epoch0], a request delivered after the epoch moved on is answered
    by [reject] instead of [handler] ([stale_epoch_rejects]), and a
    response arriving after it moved on is dropped
    ([stale_epoch_drops]); both return [`Down]. *)
val call :
  t ->
  transport ->
  ?epoch0:int ->
  src:int ->
  dst:int ->
  req_bytes:int ->
  resp_bytes:('r -> int) ->
  (unit -> 'r) ->
  [ `Ok of 'r | `Down ]

(** Spawn [node]'s dispatch loop: frames to a crashed node are dropped;
    otherwise [pkt_io ()] is charged per frame and each message is
    delivered in a fresh process. *)
val dispatch_loop : t -> node:int -> pkt_io:(unit -> unit) -> unit

(** {2 Reconfiguration (§4.2.1)}

    Armed, with a membership attached: a crash ({!crash_node}) makes
    requests into the node time out; their coordinators release locks
    and retry. At lease expiry the epoch bumps at once, and a
    background recovery waits out the commit fence, breaks dead
    coordinators' locks, drains each successor's backup log and
    promotes it. *)

(** Break, at every live node, the locks held by crashed coordinators:
    [sweep_locks ~node ~dead] drops [node]'s locks whose owner token
    satisfies [dead] and returns how many ([recovery_lock_sweeps]). *)
val sweep_dead_owner_locks :
  t -> sweep_locks:(node:int -> dead:(int -> bool) -> int) -> unit

(** Drive recovery from a membership service's declarations, calling
    back [sweep_locks], [successor_drained ~node] and
    [promote ~shard ~successor] (returns the node now serving
    [shard]). *)
val attach_membership :
  t ->
  Membership.t ->
  sweep_locks:(node:int -> dead:(int -> bool) -> int) ->
  successor_drained:(node:int -> bool) ->
  promote:(shard:int -> successor:int -> int) ->
  unit

(** Remove a node at once, bypassing lease expiry (its lease is failed
    too, with a membership attached). For tests that promote between
    load phases. *)
val fail_node : t -> node:int -> unit

(** Crash a node now without declaring it: routing changes at lease
    expiry, or immediately without a membership. *)
val crash_node : t -> node:int -> unit

(** Count and trace a refused recovery ([rejoin_refused]). *)
val refuse_rejoin : t -> node:int -> unit

(** Stop the attached membership's loops so the engine can drain. *)
val stop_background : t -> unit

(** {2 Link faults} — pass-throughs to {!Xenic_net.Fabric}; mutations
    must run as engine events at [src]. *)

val net_enable_faults : t -> seed:int64 -> rto_ns:float -> unit

val net_set_cut : t -> src:int -> dst:int -> bool -> unit

val net_set_loss : t -> src:int -> dst:int -> float -> unit

val net_set_delay : t -> src:int -> dst:int -> float -> unit
