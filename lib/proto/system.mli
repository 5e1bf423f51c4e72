(** Uniform handle over a transaction system (Xenic or an RDMA
    baseline), so workloads and experiments are system-agnostic. *)

open Xenic_cluster

type t = {
  name : string;
  cfg : Config.t;
  engine : Xenic_sim.Engine.t;
  control : Control.t;
      (** The shared control plane: crash injection, liveness, link
          faults, shed accounting, trace/telemetry attachment and
          background-service shutdown are {!Control} calls on it. *)
  metrics : unit -> Metrics.t;
      (** Reported metrics. A call, not a field: each call merges the
          per-partition shards (one when unpartitioned) into a fresh
          snapshot. *)
  ingress_occupancy : node:int -> float;
      (** Instantaneous coordinator-NIC ingress occupancy (> 1.0 =
          backlog) — the admission backpressure signal. *)
  sync : unit -> unit;
      (** Flush partition-local oracle buffers (one when unpartitioned)
          into the attached oracle: between runs on a windowed engine,
          at any time on an unpartitioned one. Both drivers call it
          after their final run. *)
  load : Keyspace.t -> bytes -> unit;
  seal : unit -> unit;
  run_txn : node:int -> Types.t -> Types.outcome;
  peek : node:int -> Keyspace.t -> bytes option;
  ordered : node:int -> shard:int -> bytes Xenic_store.Btree.t;
      (** [node]'s replica of [shard]'s ordered tables (see
          {!peek_min}). *)
  quiesce : unit -> unit;
  set_oracle : Oracle.t -> unit;
      (** Attach a serializability oracle recording committed txns. *)
  audit : unit -> string list;
      (** Post-[quiesce] protocol-invariant audit; [] = clean. *)
  recover_node : node:int -> unit;
      (** Recover a crashed node: epoch-fenced rejoin with replica
          repair on Xenic (see {!Xenic_system.recover_node}); always
          refused (counted) on the RDMA baselines. *)
  set_nic_slowdown : node:int -> float -> unit;
      (** Multiply [node]'s NIC service times by a factor >= 1; must run
          as an engine event at [node]. *)
  degrade_nic_cores : node:int -> n:int -> dur_ns:float -> unit;
      (** Take [n] of [node]'s NIC cores (the single RDMA unit) out of
          service for a duration; must run as an engine event at
          [node]. *)
  util_sources : unit -> (string * (unit -> float)) list;
      (** Instantaneous-occupancy gauges for {!Xenic_sim.Trace.sampler}. *)
  resources : unit -> (string * Xenic_sim.Resource.t) list;
      (** Every contended resource with a globally unique label, for the
          profiler's bottleneck accounting. *)
}

val of_xenic : Xenic_system.t -> t

val of_rdma : Rdma_system.t -> t

(** End a run: spawn [quiesce], run the engine until it drains, then
    [sync]. On a strict engine, fail with ["<who>: N sanitizer
    violation(s):"] followed by each {!audit} and
    {!Xenic_sim.Engine.sanitize} violation, one per line. *)
val drain : t -> who:string -> unit

(** {2 Ordered-table reads}

    Range reads of [node]'s replica over [\[lo, hi\]], two keys of one
    shard: the local-scan primitive of TPC-C's local transactions
    (serialized by their companion hash-row locks) and of tests. Not
    protocol operations. *)

val peek_min :
  t -> node:int -> lo:Keyspace.t -> hi:Keyspace.t -> (Keyspace.t * bytes) option

val peek_max :
  t -> node:int -> lo:Keyspace.t -> hi:Keyspace.t -> (Keyspace.t * bytes) option

(** Every entry in the range, in key order. *)
val peek_range :
  t -> node:int -> lo:Keyspace.t -> hi:Keyspace.t -> (Keyspace.t * bytes) list
