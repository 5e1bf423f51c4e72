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

(** {!read} without the version. *)
val read_value : t -> Keyspace.t -> bytes option

(** Last-applied log stamp per ordered key, for one node's copies. *)
type stamps

val stamps : unit -> stamps

(** [apply_ordered stamps tree op ~stamp] applies an ordered-table write
    only if [stamp] (its log record's stamp: the configuration epoch at
    append, then the node's append count across its logs) is newer
    than the last one applied to the key. Ordered tables carry no
    object version, and concurrent log-apply workers can finish a long
    record after a shorter, later one, so every stack's log application
    orders ordered-table writes through this one rule. *)
val apply_ordered :
  stamps -> bytes Xenic_store.Btree.t -> Op.t -> stamp:int -> unit

(** [apply t op ~seq] applies a committed write to this node's copy.
    Used by the host Robinhood workers when draining the log. An
    ordered-table write takes its record's log stamp as [seq] and goes
    through {!apply_ordered}. *)
val apply : t -> Op.t -> seq:int -> unit

(** [load t k v] applies initial data during workload loading (sets
    version 1, bypassing the log). *)
val load : t -> Keyspace.t -> bytes -> unit

(** [clone_hash ~from t ~shard] makes [t]'s hash table of [shard] an
    exact, independent copy of [from]'s ({!Xenic_store.Robinhood.clone_into}):
    the bulk-load seal from a shard's primary to a backup. Ordered
    tables are untouched. Both nodes must hold [shard]. *)
val clone_hash : from:t -> t -> shard:int -> unit

(** Iterate every (key, value, seq) of one shard's hash store. *)
val iter_hash : t -> shard:int -> (Keyspace.t -> bytes -> int -> unit) -> unit

(** [sync_shard ~from t ~shard] makes [t]'s copy of [shard] mirror
    [from]'s — values, versions, deletions and ordered-table apply
    stamps. State transfer for a rejoining node; the source must be
    quiescent (run it under the recovery commit fence, after the
    source's logs have drained). Deterministic: entries are applied in
    sorted key order. Both nodes must hold [shard]. *)
val sync_shard : from:t -> t -> shard:int -> unit
