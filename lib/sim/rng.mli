(** Deterministic pseudo-random number generator (SplitMix64).

    Each simulation component owns its own stream so that adding a consumer
    never perturbs the draws seen by another — a prerequisite for
    reproducible experiments. *)

type t

val create : seed:int64 -> t

(** [split t] derives an independent stream from [t], advancing [t]. *)
val split : t -> t

(** [derive t ~index] derives an independent stream keyed by [index]
    {e without} advancing [t]: the same (parent position, index) pair
    always yields the same stream. This is the partition-safe
    derivation — each partition of a parallel engine derives its own
    stream by partition id, so no partition's draws depend on another
    partition's (or on the domain count), where sequential {!split}
    calls from concurrent partitions would race on the parent. *)
val derive : t -> index:int -> t

(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)
val int : t -> int -> int

(** [float t] is uniform in [0, 1). *)
val float : t -> float

(** [bool t] is a fair coin. *)
val bool : t -> bool

(** [range t lo hi] is uniform in [lo, hi] inclusive. Requires [lo <= hi]. *)
val range : t -> int -> int -> int

(** Exponentially distributed value with the given mean. *)
val exponential : t -> mean:float -> float
