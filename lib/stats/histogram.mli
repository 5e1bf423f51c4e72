(** Log-bucketed value histogram in the style of HdrHistogram.

    Records non-negative values (latencies in nanoseconds, sizes in
    bytes) with bounded relative error per bucket, supporting quantile
    queries over millions of samples in constant memory. Counts are
    kept only for the occupied bucket range, so an empty histogram
    holds no bucket array and a typical latency histogram holds a few
    dozen buckets: one representation serves the protocol metrics and
    every telemetry window cell. *)

type t

(** [create ()] covers values in [0, 2^62) with ~2.7% relative bucket
    width (32 sub-buckets per octave). It allocates no buckets until the
    first {!record}. *)
val create : unit -> t

val record : t -> float -> unit

(** [record_n t v n] records [n] occurrences of [v].
    test_stats and test_telemetry record weighted samples with it. *)
val record_n : t -> float -> int -> unit

val count : t -> int

val total : t -> float

val mean : t -> float

(** test_stats checks the extrema that clamp {!quantile}. *)
val min_value : t -> float

(** test_stats checks the extrema that clamp {!quantile}. *)
val max_value : t -> float

(** [quantile t q] for [q] in [0, 1]; e.g. [quantile t 0.5] is the
    median. Returns [nan] when empty.
    The library reads {!median} and {!p99}; test_stats sweeps the quantile. *)
val quantile : t -> float -> float

val median : t -> float

val p99 : t -> float

(** [merge ~into src] adds all of [src]'s samples into [into]. *)
val merge : into:t -> t -> unit

(** Samples with value at most [v] (bucket resolution: everything in
    [v]'s bucket and below counts) — the SLO-attainment query. *)
val count_at_or_below : t -> float -> int

(** Nonzero [(bucket, count)] pairs sorted by bucket index.
    test_stats pins the bucket layout with it. *)
val buckets : t -> (int * int) list
