(** Global key encoding.

    Every object in the distributed store is addressed by one 63-bit
    integer packing its shard, table, table kind, and a 46-bit local
    id. Workloads construct keys with {!make}; the protocol layer
    routes on {!shard}; storage dispatches on {!ordered}.

    Ordered tables (TPC-C's B+ trees) are local to their primary's
    coordinator: they are only accessed by transactions coordinated at
    the primary, and their inserts/deletes are serialized by locks on
    companion hash-table rows (e.g. the district row), so they carry no
    per-object version. *)

type t = int

val max_shard : int

val max_table : int

val max_id : int

val make : shard:int -> table:int -> ordered:bool -> id:int -> t

val shard : t -> int

(** Only tests decode it: test_cluster's codec round-trip and test_tpcc's
    per-table row audit. *)
val table : t -> int

val ordered : t -> bool

val id : t -> int

val pp : Format.formatter -> t -> unit
