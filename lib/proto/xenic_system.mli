(** The Xenic transaction system (§4): coordinator-side and server-side
    SmartNIC protocol logic over the co-designed data store.

    Each node runs: a host application (transaction initiation,
    optional host-side execution, Robinhood worker threads draining the
    host-memory log) and an on-path SmartNIC (dispatch loop over
    aggregated frames, per-shard caching index with lock/version
    metadata, DMA engine, per-destination gather lists).

    The distributed commit follows §4.2: aggregated EXECUTE (lock
    write-set + read read-set per shard), optional NIC-side execution
    via function shipping, VALIDATE for read-only keys, LOG to backups,
    Committed report, asynchronous COMMIT to primaries. Local
    transactions take the §4.2.4 fast path; eligible 1–2-shard
    read-modify-write transactions use the §4.2.3 multi-hop pattern.
    {!Features} flags expose the §5.7 ablation ladder. *)

open Xenic_cluster

type params = {
  features : Features.t;
  app_threads : int;  (** Host application threads per node. *)
  worker_threads : int;  (** Host Robinhood worker threads per node. *)
  nic_threads : int;  (** SmartNIC cores used. *)
  cache_capacity : int;  (** NIC index cache entries per node. *)
  segments : int;  (** Host Robinhood table segments per shard copy. *)
  seg_size : int;
  d_max : int option;
  log_capacity_b : int;
  btree_op_ns : float;  (** Host cost of one ordered-table operation. *)
  req_timeout_ns : float option;
      (** [Some d]: arm per-request response deadlines — a coordinator
          whose EXECUTE/VALIDATE/LOG times out treats the peer as dead,
          releases its locks on surviving primaries, and retries
          against post-promotion routing. Must sit well above the
          worst-case round-trip so a firing timeout implies a dead
          peer, not a slow one. [None] (default): legacy behavior —
          requests block forever, faults only between load phases. *)
  retry_backoff_ns : float;
      (** Initial coordinator backoff after a dead-peer retry; doubles
          per attempt. *)
  max_retries : int;  (** Attempts before reporting Aborted. *)
  partitions : int;
      (** [> 0]: install a windowed conservative-PDES topology over
          this many node partitions (lookahead = the wire latency) and
          shard metrics and the oracle feed per partition — the
          open-loop configuration; results are bit-identical for a
          fixed partition count regardless of the engine's domain
          count. Windowed systems must stay un-armed and must not
          attach membership, traces or profiles (that state is
          cross-partition). [0] (default): legacy single-heap or
          exact-order multi-domain execution. *)
}

val default_params : params

type t

val create :
  Xenic_sim.Engine.t -> Xenic_params.Hw.t -> Config.t -> params -> t

val engine : t -> Xenic_sim.Engine.t

val config : t -> Config.t

(** Reported metrics. Partitioned systems ([partitions > 0]) merge the
    per-partition shards into a fresh object in partition-index order
    on every call; unpartitioned systems return the live shared
    object. *)
val metrics : t -> Metrics.t

(** Record one admission-control shed as an aborted transaction with
    reason {!Metrics.Shed}, so reason counts still sum to the abort
    count. [latency_ns] is the time the request spent queued before
    being dropped (0 for arrival-time sheds). *)
val record_shed : t -> latency_ns:float -> unit

(** Instantaneous ingress occupancy of [node]'s SmartNIC (most loaded
    of cores / packet I/O / DMA; > 1.0 = backlog) — the admission
    backpressure signal. *)
val ingress_occupancy : t -> node:int -> float

(** Flush partition-local oracle buffers into the attached oracle, in
    partition-index order. Call between engine runs, after the load
    drains; no-op on unpartitioned systems. *)
val sync : t -> unit

(** Load one object into every replica (bulk loading, bypassing the
    protocol) and then {!seal} to sync NIC index hints. *)
val load : t -> Keyspace.t -> bytes -> unit

val seal : t -> unit

(** [run_txn t ~node txn] executes one transaction coordinated at
    [node]. Blocking process call; returns at the Committed/Aborted
    report to the host application. *)
val run_txn : t -> node:int -> Types.t -> Types.outcome

(** Direct read of a node's replica (for checking invariants after a
    run; not a protocol operation). *)
val peek : t -> node:int -> Keyspace.t -> bytes option

(** Ordered-table range reads against a node's replica: the local-scan
    primitive used by TPC-C's local transactions (serialized by their
    companion hash-row locks) and by tests. *)
val peek_min :
  t -> node:int -> lo:Xenic_cluster.Keyspace.t -> hi:Xenic_cluster.Keyspace.t ->
  (Xenic_cluster.Keyspace.t * bytes) option

val peek_max :
  t -> node:int -> lo:Xenic_cluster.Keyspace.t -> hi:Xenic_cluster.Keyspace.t ->
  (Xenic_cluster.Keyspace.t * bytes) option

val peek_range :
  t -> node:int -> lo:Xenic_cluster.Keyspace.t -> hi:Xenic_cluster.Keyspace.t ->
  (Xenic_cluster.Keyspace.t * bytes) list

(** {2 Reconfiguration (§4.2.1)}

    Failover: when the membership service declares a node dead, each
    shard it was primary of is promoted onto a live backup. The new
    primary rebuilds its caching index over its replica — lock state
    lives only in the (dead) primary's NIC, so the rebuilt index starts
    lock-free, and hints resynchronize from the host table.
    Coordinators route by the current primary map.

    Mid-run faults are handled when [req_timeout_ns] is armed and a
    membership service is attached ({!attach_membership}):

    - A node can crash at an arbitrary instant ({!crash_node}); its
      inbound traffic is dropped, so requests into it time out at the
      coordinator, which aborts, releases locks on surviving primaries,
      and retries with exponential backoff.
    - LOG records carry a per-transaction commit decision resolved by
      the coordinator; backups apply only decided-commit records, so a
      coordinator crash mid-replication never diverges replicas.
    - When the crashed node's lease expires, the membership service
      declares it dead; the system bumps its routing epoch (stale
      responses are dropped, stale requests rejected), waits for
      in-flight commits to resolve behind a fence, breaks locks held by
      dead coordinators, drains each successor's backup log, and
      promotes. Writes stall briefly during recovery — the throughput
      dip the fault experiment measures. *)

(** Mark a node dead immediately, bypassing lease expiry: it stops
    responding, is removed from routing, and — with a membership
    attached — its lease is failed too. For tests that promote between
    load phases. *)
val fail_node : t -> node:int -> unit

(** Crash a node at the current instant without declaring it: it stops
    responding, but routing only changes once the membership lease
    expires (or immediately, if no membership is attached). This is the
    mid-run fault-injection entry point. *)
val crash_node : t -> node:int -> unit

(** A node is alive if it has not been declared dead or crashed. *)
val node_alive : t -> node:int -> bool

(** Recover a crashed node. If it returned within its lease window
    (never declared dead), this starts an epoch-fenced rejoin: the
    commit fence closes and the epoch bumps synchronously — aborting
    every transaction that saw the pre-recovery view — then, once
    in-flight commits resolve and live replicas' logs drain, each shard
    the node holds is repaired by state transfer from a live replica
    ({!Xenic_cluster.Storage.sync_shard}), its caching indexes are
    rebuilt lock-free, and only then does it answer again. If the node
    was already declared dead the recovery is refused (counted as
    [rejoin_refused]) and the node stays out — readmitting it would
    hand out stale-epoch promotions. No-op on a node that never
    crashed. Requires an attached, started membership for the rejoin
    path. *)
val recover_node : t -> node:int -> unit

(** {2 Gray-failure hooks}

    Pass-throughs to the fabric's and per-node NICs' injection knobs;
    see {!Xenic_net.Fabric} and {!Xenic_nicdev.Smartnic}. Mutations
    must run as engine events at the stated node ([~src] for link
    state) to stay legal under a partitioned engine. *)

val net_enable_faults : t -> seed:int64 -> rto_ns:float -> unit

val net_set_cut : t -> src:int -> dst:int -> bool -> unit

val net_set_loss : t -> src:int -> dst:int -> float -> unit

val net_set_delay : t -> src:int -> dst:int -> float -> unit

val set_nic_slowdown : t -> node:int -> float -> unit

val degrade_nic_cores : t -> node:int -> n:int -> dur_ns:float -> unit

(** Subscribe this system to a membership service: declared deaths bump
    the routing epoch and drive recovery (lock sweep + promotion)
    automatically. The membership must cover the same node ids. *)
val attach_membership : t -> Membership.t -> unit

(** Stop background services (the attached membership's loops, if any)
    so the simulation can drain. No-op without a membership. *)
val stop_background : t -> unit

(** Promote the first live replica of [shard] to primary; returns the
    new primary's node id. *)
val promote : t -> shard:int -> int

val current_primary : t -> shard:int -> int

(** Resource-accounting views for Table 3 / §5.6. *)
val nic_core_utilization : t -> float

val host_app_utilization : t -> float

val host_worker_utilization : t -> float

(** Attach (or detach, with [None]) a trace: protocol phases become
    spans on the coordinator's track, aborts/retries/recovery steps
    become instant events. [None] (the default) costs one pointer
    compare per candidate event. *)
val set_trace : t -> Xenic_sim.Trace.t option -> unit

(** Attach (or detach, with [None]) a telemetry flight recorder:
    commits and aborts-by-reason, with service latency, stream into its
    windows. Event-free — attaching never perturbs the run. *)
val set_telemetry : t -> Xenic_telemetry.Telemetry.t option -> unit

(** Instantaneous-occupancy gauges — one per node per resource class
    (NIC cores, DMA queues, links, host pools) — for
    {!Xenic_sim.Trace.sampler}. *)
val util_sources : t -> (string * (unit -> float)) list

(** Every contended resource (NIC cores, packet I/O, DMA queues, PCIe
    bus, host pools, fabric links) with a globally unique label, for
    the profiler's bottleneck accounting. *)
val resources : t -> (string * Xenic_sim.Resource.t) list

(** Drain in-flight asynchronous work (commit application). Call after
    load generation stops, before checking invariants. *)
val quiesce : t -> unit

(** Attach a serializability oracle: every committed transaction's read
    and write set is recorded for an end-of-run {!Oracle.check}. *)
val set_oracle : t -> Oracle.t -> unit

(** Protocol-invariant audit, meant to run after {!quiesce}: every NIC
    index must be lock-free and every host log drained. Returns
    human-readable violations (empty = clean). *)
val audit : t -> string list
