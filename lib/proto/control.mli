(** The control plane both protocol stacks share (§4.2.1): routing,
    epoch and commit fence, failover recovery, transaction outcome
    accounting, and the metrics/oracle sharding of windowed runs.

    {!Xenic_system} and {!Rdma_system} each embed one [t] and keep only
    their data plane. Control calls back into them, as plain function
    arguments, where the stacks differ: the dead-owner lock sweep,
    which log a promotion successor drains, promotion itself (all three
    given to {!attach_membership}), the per-packet NIC charge of
    {!dispatch_loop}, and the per-attempt body of {!run_txn}.

    {b Windowed contract.} With [partitions > 0] metrics and the oracle
    feed are sharded per engine partition, but the epoch, fence and
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
  retry_backoff_ns : float;
  max_retries : int;
  metrics : Metrics.t;
  part_metrics : Metrics.t array;  (** Per-partition shards; empty un-windowed. *)
  part_oracle : Oracle.t array;  (** Per-partition buffers; empty un-windowed. *)
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

(** Install the engine's partition topology (windowed when
    [partitions > 0], exact-order on a multi-domain engine otherwise),
    then create the fabric and the control state. Must run before any
    event is scheduled. *)
val create :
  Xenic_sim.Engine.t ->
  Xenic_params.Hw.t ->
  Config.t ->
  stack:string ->
  partitions:int ->
  req_timeout_ns:float option ->
  retry_backoff_ns:float ->
  max_retries:int ->
  t

val armed : t -> bool

(** {2 Routing} *)

val current_primary : t -> shard:int -> int

(** Live replicas of [shard] other than its primary. *)
val backups_of : t -> shard:int -> int list

(** Neither declared dead nor crashed. *)
val node_alive : t -> node:int -> bool

(** Bump [node]'s attempt counter and return the new attempt's id. *)
val next_id : t -> node:int -> Types.txn_id

(** {2 Metrics, trace, telemetry, oracle} *)

(** The metrics the current event records into: its partition's shard
    when windowed, the shared object otherwise. *)
val mx : t -> Metrics.t

(** Reported metrics: windowed systems merge their shards into a fresh
    object in partition-index order on every call. *)
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
    [t_prev] (latency sample, and a trace span on [src]'s track);
    returns the current time. *)
val phase_mark : t -> src:int -> seq:int -> string -> float -> float

(** Attach a serializability oracle fed by every commit. *)
val set_oracle : t -> Oracle.t -> unit

(** Flush partition oracle buffers into the attached oracle, in
    partition-index order. Call between engine runs only. *)
val sync : t -> unit

(** Record a commit's observed [reads] and its writes [seq_ops] (with
    installed versions) in the attached oracle, if any. *)
val record_commit :
  t ->
  id:int ->
  reads:(Keyspace.t * int * Oracle.observed) list ->
  seq_ops:(Op.t * int) list ->
  unit

(** Count one admission-control shed as an abort with reason
    {!Metrics.Shed}; [latency_ns] is its time queued. *)
val record_shed : t -> latency_ns:float -> unit

(** {2 Commit fence and LOG} *)

(** Enter the commit fence before the first LOG byte. Refused (counted
    [fence_refusals]) if [src] crashed or the epoch moved on from
    [epoch0]; waits while a recovery is pending. *)
val fence_acquire : t -> src:int -> epoch0:int -> bool

val fence_release : t -> unit

(** Block until no attempt holds the commit fence. *)
val wait_fence : t -> unit

(** [settle_log t ~who ~src ~backup send] delivers one LOG, [send ()]
    returning [false] on a timeout. It then stops if [src] crashed
    ([log_from_dead_coord]) or [backup] did ([log_to_dead_backup]),
    resends otherwise, and fails with ["<who>: LOG to a live backup
    timed out repeatedly"] after 8 attempts. *)
val settle_log :
  t -> who:string -> src:int -> backup:int -> (unit -> bool) -> unit

(** Backup side: wait until a record is decided; [true] to apply it,
    [false] to discard (counted [log_discards]). *)
val await_decision : t -> decision ref -> bool

(** Block until [drained ~node] holds at every live node. *)
val quiesce : t -> drained:(node:int -> bool) -> unit

(** {2 Transactions} *)

(** [run_txn t ~node attempt] runs one transaction coordinated at
    [node], one [attempt ()] per try, and accounts its outcome
    (metrics, abort reason, telemetry, outer trace span). Armed:
    retries back off exponentially up to [max_retries], and a dead
    coordinator aborts with {!Metrics.Crashed_owner}. Un-armed: a dead
    coordinator raises [Invalid_argument]. *)
val run_txn : t -> node:int -> (unit -> attempt) -> Types.outcome

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
