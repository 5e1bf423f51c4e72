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
  armed : bool;
      (** [true]: {!create} arms the fault-tolerant path —
          {!Control.req_timeout_ns} response deadlines, so a
          coordinator whose EXECUTE/VALIDATE/LOG times out treats the
          peer as dead, releases its locks on surviving primaries and
          retries against post-promotion routing; the epoch-fenced
          commit point; and a started membership driving recovery
          (below). [false] (default): the fault-free fast path —
          requests block until answered, and a crash removes the node
          from routing at once. *)
  partitions : int;
      (** [> 1]: install a windowed conservative-PDES topology over
          this many node partitions (lookahead = the wire latency) and
          shard metrics and the oracle feed per partition — the
          open-loop configuration; results are bit-identical for a
          fixed partition count regardless of the engine's domain
          count. Such systems must stay un-armed and must not attach
          traces or profiles (that state is cross-partition;
          {!Control} rejects the first two). [0] (default) or [1]: the
          engine's one partition, whatever its domain budget, with one
          metrics shard and one oracle buffer. *)
}

val default_params : params

type t

(** Build the stack. An armed one ends by starting its membership
    ({!Control.attach_membership}); an armed windowed one raises
    [Invalid_argument]. *)
val create :
  Xenic_sim.Engine.t -> Xenic_params.Hw.t -> Config.t -> params -> t

(** The shared control plane: routing, fence, crash injection, metrics,
    oracle, trace and telemetry attachment. *)
val control : t -> Control.t

(** Instantaneous ingress occupancy of [node]'s SmartNIC (most loaded
    of cores / packet I/O / DMA; > 1.0 = backlog) — the admission
    backpressure signal. *)
val ingress_occupancy : t -> node:int -> float

(** End a load phase ({!Control.load} loads): clone each loaded shard's
    primary hash table to its backups ({!Control.seal}), then sync every
    NIC index's location hints and, with caching on, prewarm its cache.
    Required after a load: until then {!run_txn} and {!System.peek}
    raise [Invalid_argument "Xenic: load without seal"]. *)
val seal : t -> unit

(** [run_txn t ~node txn] executes one transaction coordinated at
    [node]. Blocking process call; returns at the Committed/Aborted
    report to the host application. *)
val run_txn : t -> node:int -> Types.t -> Types.outcome

(** {2 Reconfiguration (§4.2.1)}

    Crash injection, the epoch, the commit fence and recovery order
    are {!Control}'s; this stack supplies the data plane, which an
    armed system hands to its membership: Xenic's lock sweep,
    successor drain and index-rebuilding promotion. On failover
    each shard the dead node was primary of is promoted onto a live
    backup, which first drains its backup log and then rebuilds its
    caching index over its replica — lock state lives only in the
    (dead) primary's NIC, so the rebuilt index starts lock-free, and
    hints resynchronize from the host table. LOG records carry a
    per-transaction commit decision resolved by the coordinator;
    backups apply only decided-commit records, so a coordinator crash
    mid-replication never diverges replicas. *)

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

(** Promote the first live replica of [shard] to primary, rebuilding its
    caching index; returns the new primary's node id. *)
val promote : t -> shard:int -> int

(** {2 Gray-failure hooks}

    Pass-throughs to the per-node NICs' injection knobs (see
    {!Xenic_nicdev.Smartnic}; link faults are {!Control}'s). Mutations
    must run as engine events at [node]. *)

val set_nic_slowdown : t -> node:int -> float -> unit

val degrade_nic_cores : t -> node:int -> n:int -> dur_ns:float -> unit

(** Instantaneous-occupancy gauges — one per node per resource class
    (NIC cores, DMA queues, links, host pools) — for
    {!Xenic_sim.Trace.sampler}. *)
val util_sources : t -> (string * (unit -> float)) list

(** Every contended resource (NIC cores, packet I/O, DMA queues, PCIe
    bus, host pools, fabric links) with a globally unique label, for
    the profiler's bottleneck accounting. *)
val resources : t -> (string * Xenic_sim.Resource.t) list

(** Protocol-invariant audit, meant to run after {!Control.quiesce}
    has drained the host logs (commit application included): every NIC
    index must be lock-free and every host log drained. Returns
    human-readable violations (empty = clean). *)
val audit : t -> string list
