(** Min-heap specialized for simulation events.

    Events are ordered by [(time, seq)]: earliest time first, and for
    equal times, insertion order. The sequence number makes the event
    order — and therefore the whole simulation — fully deterministic.

    The representation is structure-of-arrays with an unboxed float
    array for times: {!push} and {!pop} allocate nothing, and the
    minimum key is read in place with {!min_time}/{!min_seq} rather
    than materialized as an option or tuple. This is the simulator's
    hot path; see bench/exp_sim.ml for the measured effect. *)

type 'a t

(** [create ~dummy] builds an empty heap. [dummy] fills vacated value
    slots so popped values (event closures) are not retained; it is
    never returned by {!pop}. *)
val create : dummy:'a -> 'a t

val is_empty : 'a t -> bool

(** [push h ~time ~seq v] inserts [v] with priority [(time, seq)]. *)
val push : 'a t -> time:float -> seq:int -> 'a -> unit

(** [push_at h src i ~seq v] is [push h ~time:src.(i) ~seq v], with the
    time read from [src] in place: a float passed across the module
    boundary is boxed, a float array slot is not. *)
val push_at : 'a t -> float array -> int -> seq:int -> 'a -> unit

(** Time of the minimum element, in place. Raises [Invalid_argument]
    on an empty heap — check {!is_empty} first. *)
val min_time : 'a t -> float

(** [next_at_or_before h limit] is [not (is_empty h) && min_time h <=
    limit], with an unboxed [bool] result — the engine's per-event
    dispatch test, free of the float boxing a [min_time] call would
    cost across the module boundary. *)
val next_at_or_before : 'a t -> float -> bool

(** [next_before h limit] is [not (is_empty h) && min_time h < limit],
    unboxed like {!next_at_or_before}. *)
val next_before : 'a t -> float -> bool

(** [precedes a b] is whether the minimum of [a] comes before the
    minimum of [b] in [(time, seq)] order, with both keys read in
    place. Raises [Invalid_argument] if either heap is empty. *)
val precedes : 'a t -> 'a t -> bool

(** Sequence number of the minimum element, in place. Raises
    [Invalid_argument] on an empty heap. *)
val min_seq : 'a t -> int

(** [pop h] removes and returns the minimum element's value. Raises
    [Invalid_argument] on an empty heap. *)
val pop : 'a t -> 'a
