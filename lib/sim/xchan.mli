(** Bounded FIFO ring for cross-partition event handoff.

    One channel per (source, destination) partition pair: pushed by the
    source partition while a window runs, drained by the coordinator at
    the window barrier. The two phases are ordered by the barrier's
    mutex handshake, so the implementation is a plain unsynchronized
    ring — determinism comes from the phase separation, not from
    internal locking. *)

type 'a t

(** [create ~capacity ~dummy] builds an empty channel holding at most
    [capacity] elements. [dummy] fills vacated slots so popped values
    are not retained; it is never returned by {!pop}. *)
val create : capacity:int -> dummy:'a -> 'a t

val capacity : 'a t -> int

(** [push t v] appends [v]; [false] if the channel is full (the caller
    reports the deterministic overflow — a full channel must be a
    configuration error, never silent loss). *)
val push : 'a t -> 'a -> bool

(** Remove and return the oldest element, [None] when empty. *)
val pop : 'a t -> 'a option
