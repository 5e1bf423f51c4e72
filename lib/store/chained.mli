(** DrTM+H-style chained hash table (§2.2.2, §4.1.4 baseline): a closed
    array of fixed-size [b]-slot buckets with linked extra buckets.

    A remote lookup reads whole buckets and follows chain links, so it
    costs [b] objects and one roundtrip per bucket visited. The local
    variant backs the host-side store of the RPC baselines; sequence
    numbers support OCC validation. *)

type 'v t

val create : buckets:int -> b:int -> 'v t

(** Tests compare it with their models' key counts. *)
val size : 'v t -> int

val insert : 'v t -> Kv.Key.t -> 'v -> unit

(** Value and sequence number. *)
val find : 'v t -> Kv.Key.t -> ('v * int) option

(** {!find} without the sequence number. *)
val find_value : 'v t -> Kv.Key.t -> 'v option

(** [put_newer t k v ~seq] stores [v] at version [seq] unless [k] is
    already present at a version [>= seq]; an absent key is inserted.
    One probe for the key (commit application). *)
val put_newer : 'v t -> Kv.Key.t -> 'v -> seq:int -> unit

(** [delete_older t k ~seq] deletes [k] only if it is stored at a
    version older than [seq] (commit application). *)
val delete_older : 'v t -> Kv.Key.t -> seq:int -> unit

(** Remote-lookup cost of a present key: [(objects_read, roundtrips)];
    each chained bucket adds [b] objects and one roundtrip. *)
val lookup_cost : 'v t -> Kv.Key.t -> (int * int) option

(** Total buckets allocated including chains (memory accounting).
    test_store's model case checks chain allocation with it. *)
val buckets_allocated : 'v t -> int

(** [clone_into ~src ~dst] makes [dst] an exact copy of [src]: every
    cell, chain link and chained bucket, so lookup costs and later
    insertions match. [dst]'s previous contents are discarded. The two
    share no mutable state afterwards; the values themselves are shared,
    not copied. Raises [Invalid_argument] unless both tables have the
    same [buckets] and [b]. *)
val clone_into : src:'v t -> dst:'v t -> unit
