(** Time and rate units. The simulator's base time unit is the
    nanosecond; these helpers keep calibration constants readable. *)

val us : float -> float

(** [gbps bw] converts a bandwidth in gigabits per second to bytes per
    nanosecond, the fabric's native rate unit. *)
val gbps : float -> float
