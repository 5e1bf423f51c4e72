(** Cluster topology: each node is the transaction coordinator for its
    clients, the primary replica of one database shard, and a backup
    replica for [replication - 1] other shards (§4). *)

type t = {
  nodes : int;  (** Servers in the cluster. *)
  replication : int;  (** Copies of each shard: 1 primary + (r-1) backups. *)
}

(** Raises [Invalid_argument] unless [1 <= replication <= nodes] and
    [nodes <= Keyspace.max_shard + 1] (the key layout's 8-bit shard
    field bounds the cluster size). *)
val make : nodes:int -> replication:int -> t

(** Shard [s]'s primary is node [s]. *)
val primary : t -> shard:int -> int

(** Backups of shard [s]: the [replication - 1] nodes after the
    primary, in ring order. *)
val backups : t -> shard:int -> int list

(** All nodes replicating shard [s] (primary first). *)
val replicas : t -> shard:int -> int list

(** Does [node] hold a copy of [shard]? *)
val holds : t -> shard:int -> node:int -> bool

(** [partition_of_node t ~partitions ~node] assigns nodes to engine
    partitions in contiguous blocks (sizes differing by at most one;
    identity when [partitions >= nodes]). Deterministic in (t,
    partitions, node) only — the parallel engine's node-to-partition
    map. *)
val partition_of_node : t -> partitions:int -> node:int -> int
