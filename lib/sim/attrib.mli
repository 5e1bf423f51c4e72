(** Ambient attribution context (stack x node x phase x txn class) for
    the time-attribution profiler.

    The context is dynamically scoped over cooperative processes:
    {!Process} captures it at every suspension and reinstalls it at the
    matching resume, and {!Resource} attributes wait and service time
    to the context in effect at acquire/release. Protocol layers set it
    at phase boundaries; the workload driver sets the base
    (stack/node/class) per transaction.

    The ambient context is not a process-global: it lives in an
    explicit {!state} frame owned by the engine (one per partition on a
    partitioned engine) and installed into an {!Ambient} slot for the
    span of a run, so two engines interleaved in one process — or two
    partitions on separate domains — never observe each other's
    context. On the main domain the installed frame is a plain field
    read; worker domains read their own DLS cell. *)

type ctx = { stack : string; node : int; phase : string; cls : string }

(** Total order over contexts (field-wise; no polymorphic compare), the
    key order for all deterministic per-context aggregation. *)
val compare_ctx : ctx -> ctx -> int

(** [stack;n<node>;<class>;<phase>] — the flamegraph frame prefix. *)
val to_string : ctx -> string

(** The neutral context ([stack = "-"], [node = -1], ...): whatever
    runs outside any attributed scope (engine callbacks, background
    services) accounts here. *)
val default : ctx

(** {2 Ambient state}

    A [state] is a frame: one context plus the accounting-enabled flag,
    and the partition it belongs to. The engine owns the frames: one of
    its own, and one per partition once it is partitioned. {!install}
    swaps one into the calling domain's ambient slot and returns the
    previously installed frame so the caller can restore it.
    Everything below {!enabled} operates on the installed frame of the
    calling domain. *)

type state

(** A fresh engine frame: {!default} context, accounting disabled, no
    partition. *)
val fresh : unit -> state

(** [partition base i] is a frame for partition [i] of the engine whose
    own frame is [base], with [base]'s accounting flag. *)
val partition : state -> int -> state

(** Install [st] as the calling domain's ambient frame; returns the
    frame it displaced. *)
val install : state -> state

(** The calling domain's installed frame. *)
val installed : unit -> state

(** [partition_in base] is [i] when the installed frame is
    [partition base i], and [-1] otherwise: the engine's one read to
    find which of its partitions, if any, is draining here. *)
val partition_in : state -> int

(** Direct state operations, for owners adjusting a state that is not
    (or not necessarily) installed — e.g. the driver enabling
    accounting on every partition of an engine before a profiled run —
    and for callers that fetched the installed frame once. *)
val state_enabled : state -> bool

val set_state_enabled : state -> bool -> unit

val reset_state : state -> unit

val state_ctx : state -> ctx

val set_state_ctx : state -> ctx -> unit

(** [exchange st c] sets [st]'s context to [c] and returns the one it
    replaced. *)
val exchange : state -> ctx -> ctx

(** {2 Ambient operations}

    These act on the calling domain's installed frame, one ambient
    read each. *)

(** Per-context resource accounting happens only while enabled (the
    driver turns it on for profiled runs); the ambient context itself
    is always maintained. *)
val enabled : unit -> bool

val get : unit -> ctx

val set : ctx -> unit

(** [swap c] sets [c] and returns the context it replaced, in one
    ambient read: the first half of running a step under a carried
    context and restoring the ambient one with {!set}. *)
val swap : ctx -> ctx

(** Replace only the phase of the current context. *)
val set_phase : string -> unit

(** Deterministically ordered maps keyed by context. *)
module Ctx_map : Map.S with type key = ctx
