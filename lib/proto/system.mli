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
      (** Flush partition-local oracle buffers (one on a one-partition
          engine) into the attached oracle: between runs on several
          partitions, at any time on one. Both drivers call it after
          their final run. *)
  load : Keyspace.t -> bytes -> unit;
      (** Bulk-load one object, bypassing the protocol: hash keys into
          the shard's primary copy, ordered keys into every replica.
          The store never mutates a value handed to it: keys,
          replicas, the NIC cache and the logs may share one, so a
          loader may pass the same value for many keys. *)
  seal : unit -> unit;
      (** End a load phase: clone the loaded shards to their backups
          and, on Xenic, sync NIC index hints. Required on every stack:
          until it runs, [run_txn] and {!peek} raise
          [Invalid_argument "<stack>: load without seal"]. *)
  run_txn : node:int -> Types.t -> Types.outcome;
  set_oracle : Oracle.t -> unit;
      (** Attach a serializability oracle recording committed txns. *)
  audit : unit -> string list;
      (** Protocol-invariant audit after {!Control.quiesce}; [] =
          clean. *)
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

(** {2 The six stacks} *)

type stack = Xenic | Drtmh | Drtmh_nc | Fasst | Drtmr | Farm

(** Every stack, Xenic first. *)
val stacks : stack list

(** The command-line name: ["xenic"], ["drtmh"], ["drtmh-nc"],
    ["fasst"], ["drtmr"], ["farm"]. *)
val stack_name : stack -> string

(** [create ~nodes ~replication ~store_cfg ~buckets stack] builds
    [stack] on a fresh engine ([strict], [domains]: {!Xenic_sim.Engine.create})
    over [nodes] nodes with [replication] copies of each shard, sized
    for one workload: Xenic takes its Robinhood shape from [store_cfg]
    ([(segments, seg_size, d_max)], a workload's [store_cfg]), the
    baselines their chained-table size from [buckets] (its
    [chained_buckets]). The other parameters come from [xenic] or [rdma]
    (default [default_params]), with [armed] and [partitions]
    overriding theirs when given. [hw] defaults to
    {!Xenic_params.Hw.testbed}. An armed windowed stack raises
    [Invalid_argument], as its [create] does. *)
val create :
  ?strict:bool ->
  ?domains:int ->
  ?hw:Xenic_params.Hw.t ->
  ?xenic:Xenic_system.params ->
  ?rdma:Rdma_system.params ->
  ?armed:bool ->
  ?partitions:int ->
  nodes:int ->
  replication:int ->
  store_cfg:int * int * int option ->
  buckets:int ->
  stack ->
  t

(** End a run: spawn {!Control.quiesce}, run the engine until it drains, then
    [sync]. On a strict engine, fail with ["<who>: N sanitizer
    violation(s):"] followed by each {!audit} and
    {!Xenic_sim.Engine.sanitize} violation, one per line. *)
val drain : t -> who:string -> unit

(** {2 Replica reads}

    Direct reads of [node]'s replica store ({!Control.t}[.storage]),
    the same on every stack. Not protocol operations. *)

(** [node]'s replica store.
    For the replica checks of the tests (test/replicas.ml and the store
    tests). *)
val storage : t -> node:int -> Storage.t

(** [node]'s copy of [k]'s value ({!Storage.read_value}). Raises
    [Invalid_argument] while a load awaits its {!seal}
    ({!Control.check_sealed}). *)
val peek : t -> node:int -> Keyspace.t -> bytes option

(** [node]'s replica of [shard]'s ordered tables (see {!peek_min}).
    For the replica checks of the tests (test/replicas.ml and test_tpcc). *)
val ordered : t -> node:int -> shard:int -> bytes Xenic_store.Btree.t

(** {2 Ordered-table reads}

    Range reads of [node]'s replica over [\[lo, hi\]], two keys of one
    shard: the local-scan primitive of TPC-C's local transactions
    (serialized by their companion hash-row locks) and of tests. Not
    protocol operations. *)

val peek_min :
  t -> node:int -> lo:Keyspace.t -> hi:Keyspace.t -> (Keyspace.t * bytes) option

val peek_max :
  t -> node:int -> lo:Keyspace.t -> hi:Keyspace.t -> (Keyspace.t * bytes) option

(** Fold over the entries in the range, in key order, without building
    a list. *)
val fold_range :
  t ->
  node:int ->
  lo:Keyspace.t ->
  hi:Keyspace.t ->
  init:'a ->
  ('a -> Keyspace.t -> bytes -> 'a) ->
  'a

(** Every entry in the range, in key order. *)
val peek_range :
  t -> node:int -> lo:Keyspace.t -> hi:Keyspace.t -> (Keyspace.t * bytes) list
