(** Host-memory log (§4.2): the SmartNIC appends LOG and COMMIT records
    via DMA writes into a reserved hugepage region; host-side Robinhood
    worker threads poll it and apply the write sets off the critical
    path, then acknowledge so the NIC can reclaim space and unpin cache
    entries.

    The log is a bounded byte region; an append that would overflow it
    blocks until the workers catch up — backpressure that emerges in
    overload experiments. *)

type 'r t

val create : Xenic_sim.Engine.t -> capacity_b:int -> 'r t

(** Blocking: reserve [bytes] and append a record (the caller models
    the DMA-write cost itself). *)
val append : 'r t -> bytes:int -> 'r -> unit

(** Worker side: [poll_then t k] dequeues the oldest record and runs
    [k record bytes] at once, or parks [k] until the next append, which
    runs it in a zero-delay event of its own. Callable from any event;
    parked readers are served in FIFO order. *)
val poll_then : 'r t -> ('r -> int -> unit) -> unit

(** Worker acknowledges [bytes] of applied records, reclaiming space. *)
val ack : 'r t -> bytes:int -> unit

(** Nothing in flight: no bytes occupied and every appended record
    acknowledged by a worker. *)
val drained : 'r t -> bool
