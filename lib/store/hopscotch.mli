(** FaRM-style Hopscotch hash table (§2.2.2, §4.1.4 baseline).

    Every key resides within a fixed neighborhood of [h] slots starting
    at its home bucket, so a remote lookup is one read of [h] objects;
    keys that cannot be hopped into their neighborhood go to a per-home
    overflow chain, costing a second roundtrip. *)

type 'v t

val create : capacity:int -> h:int -> 'v t

val capacity : 'v t -> int

val size : 'v t -> int

val h : 'v t -> int

(** Insert or update. Raises [Failure] when no free slot exists. *)
val insert : 'v t -> Kv.Key.t -> 'v -> unit

val find : 'v t -> Kv.Key.t -> 'v option

val mem : 'v t -> Kv.Key.t -> bool

val delete : 'v t -> Kv.Key.t -> bool

(** Remote-lookup cost for a present key:
    [objects_read] is [h] for a neighborhood hit plus the overflow
    elements scanned otherwise; [roundtrips] is 1 or 2. *)
val lookup_cost : 'v t -> Kv.Key.t -> (int * int) option

(** Fraction of elements living in overflow chains. *)
val overflow_fraction : 'v t -> float

(** [clone_into ~src ~dst] makes [dst] an exact copy of [src]: every
    slot and overflow chain, so lookup costs and later insertions match.
    [dst]'s previous contents are discarded. The two share no mutable
    state afterwards; the values themselves are shared, not copied.
    Raises [Invalid_argument] unless both tables have the same
    [capacity] and [h]. *)
val clone_into : src:'v t -> dst:'v t -> unit
