(** Per-node replica storage: for every shard a node holds (its own
    primary shard plus the shards it backs up), a host-memory Robinhood
    hash table for distributed objects and a B+ tree for ordered local
    tables. *)

type shard_store = {
  hash : bytes Xenic_store.Robinhood.t;
  ordered : bytes Xenic_store.Btree.t;
}

type t

(** [create cfg ~node ~segments ~seg_size ~d_max] allocates stores for
    every shard [node] replicates. *)
val create :
  Config.t -> node:int -> segments:int -> seg_size:int -> d_max:int option -> t

val node : t -> int

(** Store of [shard]; raises if this node does not replicate it. *)
val shard_store : t -> shard:int -> shard_store

val holds : t -> shard:int -> bool

(** Read an object from this node's copy of its shard. Returns value
    and version (ordered-table objects report version 0). *)
val read : t -> Keyspace.t -> (bytes * int) option

(** [apply t op ~seq] applies a committed write to this node's copy.
    Used by the host Robinhood workers when draining the log. *)
val apply : t -> Op.t -> seq:int -> unit

(** [loader t] applies initial data during workload loading (sets
    version 1, bypassing the log). *)
val load : t -> Keyspace.t -> bytes -> unit

(** Iterate every (key, value, seq) of one shard's hash store. *)
val iter_hash : t -> shard:int -> (Keyspace.t -> bytes -> int -> unit) -> unit

(** [sync_shard ~from t ~shard] makes [t]'s copy of [shard] mirror
    [from]'s — values, versions, deletions and ordered-table apply
    stamps. State transfer for a rejoining node; the source must be
    quiescent (run it under the recovery commit fence, after the
    source's logs have drained). Deterministic: entries are applied in
    sorted key order. Both nodes must hold [shard]. *)
val sync_shard : from:t -> t -> shard:int -> unit
