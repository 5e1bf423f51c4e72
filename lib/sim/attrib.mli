(** Ambient attribution context (stack x node x phase x txn class) for
    the time-attribution profiler.

    The context is dynamically scoped over cooperative processes:
    {!Process} captures it at every suspension and reinstalls it at the
    matching resume, and {!Resource} attributes wait and service time
    to the context in effect at acquire/release. Protocol layers set it
    at phase boundaries; the workload driver sets the base
    (stack/node/class) per transaction.

    The ambient context is not a process-global: it lives in an
    explicit {!state} owned by the engine (one per partition on a
    partitioned engine) and installed into a domain-local slot for the
    span of a run, so two engines interleaved in one process — or two
    partitions on separate domains — never observe each other's
    context. *)

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

    A [state] holds one context plus the accounting-enabled flag. The
    engine owns the state(s); {!install} swaps one into the current
    domain's ambient slot and returns the previously installed state so
    the caller can restore it. Everything below {!enabled} operates on
    the installed state of the calling domain. *)

type state

(** A fresh state: {!default} context, accounting disabled. *)
val fresh : unit -> state

(** Install [st] as the calling domain's ambient state; returns the
    state it displaced. *)
val install : state -> state

(** Direct state operations, for owners adjusting a state that is not
    (or not necessarily) installed — e.g. the driver enabling
    accounting on every partition of an engine before a profiled run. *)
val state_enabled : state -> bool

val set_state_enabled : state -> bool -> unit

val reset_state : state -> unit

(** {2 Ambient operations}

    These act on the calling domain's installed state. *)

(** Per-context resource accounting happens only while enabled (the
    driver turns it on for profiled runs); the ambient context itself
    is always maintained. *)
val enabled : unit -> bool

val get : unit -> ctx

val set : ctx -> unit

(** Replace only the phase of the current context. *)
val set_phase : string -> unit

(** Deterministically ordered maps keyed by context. *)
module Ctx_map : Map.S with type key = ctx
