(** Time and rate units. The simulator's base time unit is the
    nanosecond; these helpers keep calibration constants readable. *)

val us : float -> float

(** [gbps bw] converts a bandwidth in gigabits per second to bytes per
    nanosecond, the fabric's native rate unit. *)
val gbps : float -> float

(** [mops rate] converts millions of operations per second to a per-op
    service time in nanoseconds. *)
val mops_to_ns_per_op : float -> float
