(** The RDMA-based comparison systems of §5.1, reimplemented on the CX5
    model over a DrTM+H-style chained hash store (Hopscotch on FaRM),
    kept in the shared replica stores ({!Control.t}[.storage]):

    - {b DrTM+H}: the hybrid. One-sided READs for execution and
      validation (exact-address reads via the coordinator's remote
      address cache), RPCs for locking and commit, one-sided WRITEs for
      logging.
    - {b DrTM+H (NC)}: remote address cache disabled — execution reads
      traverse the chained buckets with one one-sided READ per bucket.
    - {b FaSST}: two-sided RPCs for everything, consolidating each
      shard's reads and locks into one RPC.
    - {b DrTM+R}: one-sided only — CAS locks every accessed key (reads
      included, so no validation phase), one-sided reads, WRITE-based
      logging, commit+unlock in one WRITE per key.
    - {b FaRM} (extra; the paper describes it in §2.2.2 but does not
      plot it in Fig 8): objects live in a Hopscotch table; execution
      and validation reads are one-sided READs of the full H=8
      neighborhood (a second roundtrip on overflow); locking and commit
      use its WRITE-based message-log RPCs; logging is one-sided.

    All four share host thread pools (coordinator work and RPC handling
    compete for the same cores, as in FaSST) and FaRM-style background
    log application at backups. *)

open Xenic_cluster

type flavor = Drtmh | Drtmh_nc | Fasst | Drtmr | Farm

val flavor_name : flavor -> string

(** Slots per chained-table bucket (B in Table 2): 8. *)
val bucket_b : int

type params = {
  host_threads : int;  (** Host threads per node (app + RPC handling). *)
  worker_threads : int;  (** Background log-apply threads. *)
  buckets : int;  (** Chained-table main buckets per shard copy. *)
  armed : bool;
      (** [true]: {!create} arms the fault-tolerant path —
          {!Control.req_timeout_ns} deadlines, so a coordinator whose
          RPC or verb to a dead node times out fails the attempt,
          releases its locks on surviving primaries and retries
          against post-promotion routing; the epoch-fenced commit
          point; and a started membership driving recovery (below).
          [false] (default): the fault-free fast path. *)
  partitions : int;
      (** [> 1]: windowed conservative-PDES topology over this many
          node partitions with per-partition metrics/oracle shards (the
          open-loop configuration; un-armed runs only, no
          membership/trace). [0] (default) or [1]: one partition. Same
          contract as {!Xenic_system.params}[.partitions]. *)
}

val default_params : params

type t

(** Build the stack. An armed one ends by starting its membership
    ({!Control.attach_membership}); an armed windowed one raises
    [Invalid_argument]. *)
val create :
  Xenic_sim.Engine.t ->
  Xenic_params.Hw.t ->
  Config.t ->
  flavor ->
  params ->
  t

val flavor : t -> flavor

(** The shared control plane: routing, fence, crash injection, metrics,
    oracle, trace and telemetry attachment. *)
val control : t -> Control.t

(** Instantaneous ingress occupancy of [node] (most loaded of the host
    RPC pool and the RDMA NIC unit; > 1.0 = backlog) — the admission
    backpressure signal. *)
val ingress_occupancy : t -> node:int -> float

val run_txn : t -> node:int -> Types.t -> Types.outcome

(** Instantaneous-occupancy gauges (links, host pools) for
    {!Xenic_sim.Trace.sampler}. *)
val util_sources : t -> (string * (unit -> float)) list

(** Every contended resource (host pools, RDMA NIC units, fabric links)
    with a globally unique label, for the profiler's bottleneck
    accounting. *)
val resources : t -> (string * Xenic_sim.Resource.t) list

(** {2 Reconfiguration}

    An armed system's mid-run fault handling ({!Control}) with this
    stack's data plane:
    the dead-owner sweep clears the host lock tables, the promotion
    successor drains its backup log, and — stores being fully
    replicated — promotion is a primary-map change only. *)

(** Flap rejoin is not modeled for the RDMA baselines (their lock words
    live in host memory, so a sound rejoin would need lock
    reconciliation on top of state transfer): a recovery request is
    always refused — counted as [rejoin_refused], never raised — and
    the node stays out. No-op on a node that never crashed. *)
val recover_node : t -> node:int -> unit

(** {2 Gray-failure hooks} — pass-throughs to the {!Xenic_nicdev.Rdma}
    injection knobs (link faults are {!Control}'s); mutations must run
    as engine events at [node]. *)

val set_nic_slowdown : t -> node:int -> float -> unit

(** Stalls the node's single NIC processing unit for the duration when
    [n >= 1]. *)
val degrade_nic_cores : t -> node:int -> n:int -> dur_ns:float -> unit

(** Protocol-invariant audit, meant to run after {!Control.quiesce}: every
    per-node lock table must be empty and every host log drained.
    Returns human-readable violations (empty = clean). *)
val audit : t -> string list
