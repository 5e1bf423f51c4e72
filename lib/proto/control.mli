(** The protocol core both stacks share (§4.2, §4.2.1): routing, epoch
    and commit fence, the request round trip with its deadline and
    epoch fence, the attempt tail after execution (validate, commit
    point, COMMIT), LOG fan-out and its retry rule, the
    host-memory log records and their apply workers, failover recovery,
    transaction outcome accounting, the oracle report, the post-run
    audit, and the metrics/oracle sharding of windowed runs.

    {!Xenic_system} and {!Rdma_system} each embed one [t] and keep only
    their transports — NIC requests versus RPCs and one-sided verbs —
    with their handlers. The replica stores are [t]'s own: one
    {!Storage.t} per node, whose hash layout the stack picks at
    {!create}. Control calls back into the stacks, as a {!transport}
    record or as plain function arguments, wherever the transport
    differs: how a request and its response move ({!call}), how reads
    are validated, a LOG sent and COMMIT applied ({!finish},
    {!commit_point}, {!replicate}), what follows a record's apply
    ({!log_worker}), which locks a node holds ({!audit}), the recovery
    hooks given to
    {!attach_membership}, the per-packet NIC charge of
    {!dispatch_loop}, and the per-attempt body of {!run_txn}.

    {b Shards.} Metrics and the oracle feed are sharded per engine
    partition — one shard on a one-partition engine.

    {b Armed.} An armed system has request deadlines
    ({!req_timeout_ns}), the epoch-fenced commit point and a lease-based
    membership ({!lease_ns}) driving recovery. An un-armed one has none
    of them: requests block until answered and a crash removes the node
    from routing at once.

    {b Windowed contract.} With [partitions > 1] the epoch, fence and
    liveness state is cross-partition: such a system must stay
    un-armed, so it has no membership, and attach no trace. {!create}
    and {!set_trace} raise [Invalid_argument] otherwise. *)

open Xenic_cluster

(** How the destination's dispatch loop runs a message's [deliver]:
    in a fresh process ([In_process]: a request handler, which may
    block on NIC cores, NIC memory, DMA or host threads), in the
    dispatch event itself ([In_place]: a reply, which never blocks), or
    passed to a charge the receiver pays first ([Charged charge]: a
    reply whose arrival costs the receiving device time, [charge k]
    running [k] when it is paid). Build a [Charged] value once per
    receiver, not per message. *)
type via = In_process | In_place | Charged of ((unit -> unit) -> unit)

(** A message between nodes: its wire size, the sender's attribution
    context, and what runs at the destination, and how. The dispatch
    loop installs [ctx] around the delivery. Build one with {!request},
    {!reply} or {!reply_via}. *)
type msg = {
  bytes : int;
  ctx : Xenic_sim.Attrib.ctx;
  deliver : unit -> unit;
  via : via;
}

(** [request ~bytes handler]: a message whose handler runs in a fresh
    process at the destination, under the caller's current context. *)
val request : bytes:int -> (unit -> unit) -> msg

(** [reply ~bytes k]: a message whose [k] runs in the destination's
    dispatch event, outside any process, under the caller's current
    context. [k] must not block. *)
val reply : bytes:int -> (unit -> unit) -> msg

(** [reply_via ~bytes via k]: a message whose [k] is delivered as [via]
    says, under the caller's current context. *)
val reply_via : bytes:int -> via -> (unit -> unit) -> msg

(** Commit decision shared by every LOG record of one transaction.
    Backups apply only [Dcommit] records; the coordinator resolves
    every record it caused to be appended. *)
type decision = Dpending | Dcommit | Dabort

(** One transaction attempt's result. [`Retry]: it ran into a dead or
    reconfigured peer, released its locks, and should run again against
    fresh routing (armed mode only). *)
type outcome =
  [ `Committed
  | `Aborted of Metrics.abort_reason
  | `Retry of Metrics.abort_reason ]

(** One transaction at its coordinator, built by {!run_txn}, which
    {!draw}s each try's id into it. Every emission keyed on the attempt
    reads it: the phase samples and spans of {!mark} and {!mark_async},
    the outer ["txnlat"] span and the abort and retry instants, all on
    track ([coord], [seq]). *)
type attempt = {
  coord : int;  (** The coordinator node. *)
  mutable seq : int;  (** This try's id at [coord]; 0 before the first draw. *)
  mutable owner : int;
      (** Lock owner token and oracle id: {!Types.owner_token} of
          ([coord], [seq]). *)
  mutable start : float;  (** When the open phase began, simulated ns. *)
}

(** A LOG or COMMIT record in a host-memory log. Which log it sits in
    tells its kind. *)
type log_record = {
  lr_shard : int;
  lr_ops : (Op.t * int) list;  (** Writes with their new versions. *)
  lr_decision : decision ref;
      (** Shared by every copy of one transaction's records. *)
  mutable lr_stamp : int;
      (** Apply order of the record's ordered-table writes: the
          configuration epoch at append, then the node's append count
          across all its logs ({!append_log}). Set by {!append_log};
          delivery to workers is deferred, so it is set before any
          worker reads it. *)
}

type t = {
  engine : Xenic_sim.Engine.t;
  hw : Xenic_params.Hw.t;  (** Prices {!log_worker}'s applies. *)
  cfg : Config.t;
  stack : string;  (** Telemetry and attribution label. *)
  fabric : msg Xenic_net.Fabric.t;
  armed : bool;  (** Deadlines, commit fence and membership on. *)
  part_metrics : Metrics.t array;
      (** Per-partition shards; one when unpartitioned. *)
  part_oracle : Oracle.t array;
      (** Per-partition buffers, flushed by {!sync}; one when
          unpartitioned. *)
  primaries : int array;  (** Shard -> current primary. *)
  alive : bool array;  (** Routing view: false once removed. *)
  crashed : bool array;  (** Ground truth: true from the crash instant. *)
  txn_seq : int array;
      (** Per-coordinator attempt counter; only {!draw} reads it. *)
  log_appends : int array;
      (** Per-node host-log appends across all the node's logs, the
          count half of a record's stamp ({!append_log}). *)
  storage : Storage.t array;  (** Node -> its replica store. *)
  logs : (string * log_record Xenic_store.Hostlog.t) list array;
      (** Node -> its host logs, named, in {!host_log} order. *)
  unsealed : bool array;  (** Shard -> bulk-loaded since the last {!seal}. *)
  mutable epoch : int;  (** Bumped on every reconfiguration. *)
  mutable inflight_commits : int;  (** Attempts holding the commit fence. *)
  mutable recovery_waiting : int;  (** Pending recoveries; close the fence. *)
  mutable membership : Membership.t option;  (** [Some _] iff armed. *)
  mutable oracle : Oracle.t option;
  mutable trace : Xenic_sim.Trace.t option;
  mutable telemetry : Xenic_telemetry.Telemetry.t option;
}

(** Every armed request's deadline: 40 µs, above the worst-case round
    trip, so a firing timeout implies a dead peer.
    test_proto times its armed-request cases from it. *)
val req_timeout_ns : float

(** The membership lease of an armed system: 25 µs, shorter than
    {!req_timeout_ns}, so promotion lands while coordinators back
    off. *)
val lease_ns : float

(** With [partitions > 1], install a partition topology on the engine
    (lookahead = wire latency); otherwise the engine keeps its one
    partition whatever its domain budget. Then create the fabric, one
    replica store per node (each shard copy's hash table a fresh
    [table ()]) and the control state, with no membership yet: an armed
    stack ends its own [create] with {!attach_membership}. Must run
    before any event is scheduled. Raises [Invalid_argument] when
    [armed] and [partitions > 1]. *)
val create :
  Xenic_sim.Engine.t ->
  Xenic_params.Hw.t ->
  Config.t ->
  stack:string ->
  partitions:int ->
  armed:bool ->
  table:(unit -> Storage.hash) ->
  t

(** {2 Routing} *)

val current_primary : t -> shard:int -> int

(** Neither declared dead nor crashed. *)
val node_alive : t -> node:int -> bool

(** [draw t a] bumps [a.coord]'s attempt counter and makes the new
    value [a]'s [seq] and [owner], and opens its first phase now. *)
val draw : t -> attempt -> unit

(** {2 Bulk load}

    Loading bypasses the protocol and writes one copy per shard: a
    shard's hash tables are built once, on its primary, and {!seal}
    clones them to the backups. *)

(** [load t k v] marks [k]'s shard unsealed and loads [v] into each
    store that holds [k] now ({!Storage.load}): the shard's primary's
    ({!Config.primary}) for a hash key, every replica's for an ordered
    key. *)
val load : t -> Keyspace.t -> bytes -> unit

(** [seal t] clones the primary's hash table of every shard loaded
    since the last seal to each of its backups ({!Storage.clone_hash}),
    in shard order, then marks those shards sealed. *)
val seal : t -> unit

(** Raise [Invalid_argument "<stack>: load without seal"] while a shard
    loaded since the last {!seal} awaits its clone. {!run_txn} checks
    it; {!System.peek} does too. *)
val check_sealed : t -> unit

(** {2 Metrics, trace, telemetry, oracle} *)

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

(** [mark t a name] closes [a]'s open phase as [name] (a latency sample
    and, when tracing, a ["txn"] span from [a.start] to now on [a]'s
    track) and opens the next one now. *)
val mark : t -> attempt -> string -> unit

(** [mark_async t a name ~since]: the same sample and span for a phase
    of [a] that ran from [since] to now off its critical path, in trace
    category ["txn-async"]; [a]'s open phase is left as it is. *)
val mark_async : t -> attempt -> string -> since:float -> unit

(** Attach a serializability oracle fed by every commit. *)
val set_oracle : t -> Oracle.t -> unit

(** Flush partition oracle buffers into the attached oracle, in
    partition-index order; commits reach the attached oracle only
    through it. On several partitions, call between runs only. A
    one-partition system has one shard, so there it may also be called
    from an event mid-run. *)
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

(** [commit_point t a ~epoch0 ~log ~commit ~abort] runs attempt [a]
    from the end of validation to its outcome: [log d] sends the LOG
    records carrying decision [d], [commit ()] sends COMMIT and
    releases locks, [abort ()] releases locks. The phase attribution is
    set to ["log"] before [log], and {!mark} closes ["log"] after it.

    Un-armed, the records are born [Dcommit] and the result is
    [`Committed]. Armed, the attempt first enters the commit fence:
    refused (counted [fence_refusals]) when [a.coord] crashed or the
    epoch moved on from [epoch0], it calls [abort] and returns
    [`Retry Stale_epoch]; it waits while a recovery is pending. The
    records then start [Dpending]. If [a.coord] crashed during [log], the
    decision becomes [Dabort] and the result is
    [`Aborted Crashed_owner]; otherwise it becomes [Dcommit] and
    [commit] runs with no suspension in between. The fence is released
    before returning. *)
val commit_point :
  t ->
  attempt ->
  epoch0:int ->
  log:(decision ref -> unit) ->
  commit:(unit -> unit) ->
  abort:(unit -> unit) ->
  outcome

(** [finish t a ~epoch0 ~values ~lock_versions ~checks ~validate
    ~release ~log ~commit ops] ends attempt [a], whose execution read
    [values], locked [lock_versions] and produced [ops]; [checks] are
    the keys read but not locked, with the versions read. The oracle
    records the commit under [a.owner].

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
  attempt ->
  epoch0:int ->
  values:(Keyspace.t * bytes option * int) list ->
  lock_versions:(Keyspace.t * int) list ->
  checks:(Keyspace.t * int) list ->
  validate:((Keyspace.t * int) list -> [ `Valid | `Invalid | `Down ]) ->
  release:(unit -> unit) ->
  log:((int * (Op.t * int) list) list -> decision ref -> unit) ->
  commit:((Op.t * int) list -> (int * (Op.t * int) list) list -> unit) ->
  Op.t list ->
  outcome

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

(** [host_log t ~node ~name]: a fresh host-memory log of 4 MiB for
    [node], recorded under [name] after [node]'s earlier logs, so
    {!quiesce} waits for it and {!audit} names it. *)
val host_log : t -> node:int -> name:string -> log_record Xenic_store.Hostlog.t

(** [append_log t ~node log ...] appends a record of [ops] to [log], one
    of [node]'s logs (blocking while the log is full), and stamps it:
    the epoch now, then [node]'s count of appends across all its logs,
    so a stamp orders the record after every record [node] appended
    before it, in any log, and after every record of an earlier
    configuration. The caller charges the DMA or WRITE. *)
val append_log :
  t ->
  node:int ->
  log_record Xenic_store.Hostlog.t ->
  bytes:int ->
  shard:int ->
  ops:(Op.t * int) list ->
  decision ref ->
  unit

(** Start one log-apply worker for [node]'s [log], a callback chain
    with no process. It polls a record and waits for its decision,
    re-checking an undecided one every 500 ns: a [Dabort] record is
    acknowledged unapplied (counted [log_discards]). A [Dcommit] record
    is applied to [node]'s store holding one server of [pool]: per
    write [(op, seq)], wait the host cost of applying [op] (300 ns for
    an ordered key; per-op plus per-byte host cost otherwise), then
    {!Storage.apply} with the record's stamp — the same rule on every
    stack. The worker then acknowledges the record and calls [applied
    record]. Its waits and holds are accounted to the [log-apply]
    phase of [node]. *)
val log_worker :
  t ->
  node:int ->
  log:log_record Xenic_store.Hostlog.t ->
  pool:Xenic_sim.Resource.t ->
  applied:(log_record -> unit) ->
  unit

(** Block until every live node's host logs are drained. *)
val quiesce : t -> unit

(** Protocol audit, meant to run after {!quiesce}: at every live node,
    each lock in [locked ~node] ([(key, owner)]) and each of its host
    logs not drained, by name in {!host_log} order, is a violation.
    Returns them in node order, human-readable; [[]] = clean. *)
val audit : t -> locked:(node:int -> (Keyspace.t * int) list) -> string list

(** {2 Transactions} *)

(** [run_txn t ~node body] runs one transaction coordinated at [node]:
    it builds the transaction's {!attempt}, and per try {!draw}s its id
    and runs [body a]. It accounts the outcome (metrics, abort reason,
    telemetry, outer trace span, abort and retry instants), keyed on
    [a.seq]: the last try's id, or 0 when a dead coordinator aborts
    before its first try. Armed:
    retries back off exponentially from 30 µs, up to 10 attempts, and
    a dead coordinator aborts with {!Metrics.Crashed_owner}. Un-armed:
    a dead coordinator raises [Invalid_argument]. Raises
    [Invalid_argument] before any attempt while a load awaits its
    {!seal} ({!check_sealed}). *)
val run_txn : t -> node:int -> (attempt -> outcome) -> Types.outcome

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

(** {!give_up} for a caller that is not a process: count one
    [req_timeouts] and run [k] once the full timeout has passed. *)
val give_up_then : t -> (unit -> unit) -> unit

(** [call t tr ?epoch0 ~src ~dst ~req_bytes ~resp_bytes handler] sends
    a request of [req_bytes] from [src] to [dst], runs [handler] at
    [dst] and returns its result in a response of [resp_bytes r] bytes.

    Un-armed: [depart], [send], [handler], [back], and the caller
    blocks until the response is back; always [`Ok].

    Armed: a crashed [dst] is {!give_up}. Otherwise the caller waits
    at most {!req_timeout_ns} and then returns [`Down], counted
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

(** Start [node]'s dispatch loop, a callback chain on the node's
    receive mailbox (no process): frames to a crashed node are dropped;
    otherwise, with [pkt_io = Some (path, cost_ns)], each frame holds
    [path] for [cost_ns ()] (the NIC's packet-I/O charge), then its
    messages are delivered in order, each under its own [ctx]: a
    request's handler in a fresh process, a reply in place. Frames are
    handled one at a time, in arrival order, under the node's
    ["dispatch"] attribution context. *)
val dispatch_loop :
  t ->
  node:int ->
  pkt_io:(Xenic_sim.Resource.t * (unit -> float)) option ->
  unit

(** {2 Reconfiguration (§4.2.1)}

    Armed: a crash ({!crash_node}) makes requests into the node time
    out; their coordinators release locks and retry. At lease expiry the epoch bumps at once, and a
    background recovery waits out the commit fence, breaks dead
    coordinators' locks, drains each successor's backup log and
    promotes it. *)

(** Break, at every live node, the locks held by crashed coordinators:
    [sweep_locks ~node ~dead] drops [node]'s locks whose owner token
    satisfies [dead] and returns how many ([recovery_lock_sweeps]). *)
val sweep_dead_owner_locks :
  t -> sweep_locks:(node:int -> dead:(int -> bool) -> int) -> unit

(** Build a membership of {!lease_ns} over the cluster, subscribe
    recovery to its declarations and start it. Recovery calls back
    [sweep_locks], waits until the successor's backup log (its first
    {!host_log}) is drained, and calls [promote ~shard ~successor]
    (returns the node now serving [shard]). Each armed stack calls it
    as the last step of its [create], after spawning its dispatch loops
    and log-apply workers. *)
val attach_membership :
  t ->
  sweep_locks:(node:int -> dead:(int -> bool) -> int) ->
  promote:(shard:int -> successor:int -> int) ->
  unit

(** Remove a node at once, bypassing lease expiry (its lease is failed
    too, when armed). For tests that promote between load phases. *)
val fail_node : t -> node:int -> unit

(** Crash a node now without declaring it: routing changes at lease
    expiry when armed, immediately otherwise. *)
val crash_node : t -> node:int -> unit

(** Count and trace a refused recovery ([rejoin_refused]). *)
val refuse_rejoin : t -> node:int -> unit

(** Stop an armed system's membership loops so the engine can
    drain. *)
val stop_background : t -> unit

(** {2 Link faults} — pass-throughs to {!Xenic_net.Fabric}; mutations
    must run as engine events at [src]. *)

val net_enable_faults : t -> seed:int64 -> rto_ns:float -> unit

val net_set_cut : t -> src:int -> dst:int -> bool -> unit

val net_set_loss : t -> src:int -> dst:int -> float -> unit

val net_set_delay : t -> src:int -> dst:int -> float -> unit
