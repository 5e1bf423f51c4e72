(** In-memory B+ tree with linked leaves, for TPC-C's order-preserving
    local tables (ORDER, NEW-ORDER, ORDER-LINE, CUSTOMER indexes).

    Composite keys (warehouse, district, order, line) are encoded into
    the integer key by the workload layer; range scans then walk the
    leaf chain. Deletion removes entries without rebalancing — a
    standard lazy-delete simplification that preserves correctness
    (empty leaves stay linked) at a small balance cost under heavy
    deletion. *)

type 'v t

val create : unit -> 'v t

(** Tests compare it with their models' key counts. *)
val size : 'v t -> int

(** Insert or replace. *)
val insert : 'v t -> Kv.Key.t -> 'v -> unit

val find : 'v t -> Kv.Key.t -> 'v option

val mem : 'v t -> Kv.Key.t -> bool

val delete : 'v t -> Kv.Key.t -> bool

(** [iter_range t ~lo ~hi f] applies [f] to entries with
    [lo <= key <= hi] in ascending key order. *)
val iter_range : 'v t -> lo:Kv.Key.t -> hi:Kv.Key.t -> (Kv.Key.t -> 'v -> unit) -> unit

val fold_range :
  'v t -> lo:Kv.Key.t -> hi:Kv.Key.t -> init:'a -> ('a -> Kv.Key.t -> 'v -> 'a) -> 'a

(** Smallest entry with [key >= lo] (and [key <= hi]). *)
val min_in_range : 'v t -> lo:Kv.Key.t -> hi:Kv.Key.t -> (Kv.Key.t * 'v) option

(** Largest entry with [key <= hi] (and [key >= lo]). *)
val max_in_range : 'v t -> lo:Kv.Key.t -> hi:Kv.Key.t -> (Kv.Key.t * 'v) option

(** Structural invariant check for tests: sorted keys, consistent
    separators, leaf-chain completeness. Raises [Failure] on violation. *)
val check_invariants : 'v t -> unit
