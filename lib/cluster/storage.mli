(** Per-node replica storage, the one replica store of every stack: for
    every shard a node holds (its own primary shard plus the shards it
    backs up), a host-memory hash table for distributed objects and a
    B+ tree for ordered local tables. The stacks differ only in the
    hash table: Robinhood for Xenic (§4.1.2), a chained table for
    DrTM+H, FaSST and DrTM+R, Hopscotch for FaRM (§4.1.4). *)

(** One shard copy's hash table. *)
type hash =
  | Robinhood of bytes Xenic_store.Robinhood.t  (** Xenic. *)
  | Chained of bytes Xenic_store.Chained.t
      (** DrTM+H, DrTM+H (NC), FaSST and DrTM+R. *)
  | Hopscotch of (int * bytes) Xenic_store.Hopscotch.t
      (** FaRM, stored as (version, value). *)

type shard_store = { hash : hash; ordered : bytes Xenic_store.Btree.t }

type t

(** [create cfg ~node ~table] allocates stores for every shard [node]
    replicates, each hash table a fresh [table ()]. *)
val create : Config.t -> node:int -> table:(unit -> hash) -> t

(** Store of [shard]; raises if this node does not replicate it. *)
val shard_store : t -> shard:int -> shard_store

val holds : t -> shard:int -> bool

(** [shard]'s Robinhood table, the host table a Xenic caching index
    fronts. Raises [Invalid_argument] on any other layout. *)
val robinhood : t -> shard:int -> bytes Xenic_store.Robinhood.t

(** Read an object from this node's copy of its shard. Returns value
    and version (ordered-table objects report version 0). *)
val read : t -> Keyspace.t -> (bytes * int) option

(** {!read} without the version. *)
val read_value : t -> Keyspace.t -> bytes option

(** [load t k v] applies initial data during workload loading (sets
    version 1, bypassing the log). [v] is never mutated afterwards:
    keys, replicas, the NIC cache and the logs may all share it, so a
    loader may pass one value for many keys. *)
val load : t -> Keyspace.t -> bytes -> unit

(** [clone_hash ~from t ~shard] makes [t]'s hash table of [shard] an
    exact, independent copy of [from]'s (each table's [clone_into]): the
    bulk-load seal from a shard's primary to a backup. Ordered tables
    are untouched. Both nodes must hold [shard] in one layout. *)
val clone_hash : from:t -> t -> shard:int -> unit

(** [apply t op ~seq ~stamp] applies one write of a decided log record
    to this node's copy, on every stack. A hash write is
    version-guarded: it lands only if [seq], its object version, is
    newer than the stored one. An ordered-table write carries no object
    version, and concurrent log-apply workers can finish a long record
    after a shorter, later one, so it lands only if [stamp] (its
    record's log stamp: the configuration epoch at append, then the
    node's append count across its logs) is newer than the last one
    applied to the key. *)
val apply : t -> Op.t -> seq:int -> stamp:int -> unit

(** [write t op ~seq] is an RDMA baseline primary's COMMIT write: a
    hash write is version-guarded as in {!apply}; an ordered-table
    write lands unconditionally and leaves the log stamps alone (the
    key's lock orders it). *)
val write : t -> Op.t -> seq:int -> unit

(** [sync_shard ~from t ~shard] makes [t]'s copy of [shard] mirror
    [from]'s — values, versions, deletions and ordered-table apply
    stamps. State transfer for a rejoining node; the source must be
    quiescent (run it under the recovery commit fence, after the
    source's logs have drained). Deterministic: entries are applied in
    sorted key order. Both nodes must hold [shard]. Robinhood only (the
    RDMA stacks refuse rejoin): raises [Invalid_argument] on any other
    layout. *)
val sync_shard : from:t -> t -> shard:int -> unit
