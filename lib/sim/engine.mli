(** Deterministic discrete-event simulation engine.

    Time is a [float] count of {e nanoseconds} since simulation start.
    Events scheduled for the same instant run in scheduling order.
    Determinism follows from the total (time, seq) event order and from
    components drawing randomness from their own {!Rng.t} streams.

    Every engine is a conservative windowed engine over partitions.
    A fresh engine has one partition, which drains each run as a single
    window in global (time, seq) order on the calling domain.
    {!set_topology} splits a fresh engine into several partitions that
    execute windows of [lookahead] ns concurrently; cross-partition
    events must land at or beyond the window horizon and are merged
    deterministically at the barrier. That requires a partition-clean
    model (no mutable state shared across partitions, cross-partition
    delays >= lookahead); results are bit-identical across domain
    counts for a fixed partition count.

    The default domain count is the [XENIC_DOMAINS] environment
    variable (1 when unset), so a test binary can run partitioned
    models on one or several domains unmodified. *)

type t

(** [create ?strict ?domains ()] builds an engine. With [~strict:true]
    the engine runs in {e sanitizer} mode: sim primitives (ivars,
    resources, mailboxes, processes) register end-of-run invariant
    checks on creation and the event loop tracks clock monotonicity;
    {!sanitize} reports every violation. Strict mode keeps a closure
    per created primitive alive for the lifetime of the engine, so it
    is intended for tests, not for large benchmark runs.

    The engine has one partition. [domains] (default:
    [XENIC_DOMAINS], or 1) is the number of OCaml domains its runs may
    use; a run never uses more domains than there are partitions, so
    it has no effect until {!set_topology} installs several. *)
val create : ?strict:bool -> ?domains:int -> unit -> t

(** Whether the engine was created with [~strict:true]. *)
val strict : t -> bool

(** The engine's domain budget (1 = single-domain).
    Only test_domains reads it, to check the budget a system passes down. *)
val domains : t -> int

(** Number of partitions: 1 unless {!set_topology} installed more. *)
val partitions : t -> int

(** [set_topology t ~lookahead ~partitions ~node_partition] replaces
    the one partition of a fresh engine by [partitions] partitions:
    events tagged with [~node:n] (see {!at}) belong to partition
    [node_partition n]; untagged events inherit the partition of the
    event that scheduled them. Must be called before any event is
    scheduled, and not again once it installed several partitions.
    [~partitions:1] keeps the engine as it is.

    An event may schedule onto another partition only at
    [>= lookahead] (> 0, ns) past the current window's start;
    violations raise deterministically. A partition's cross-partition
    handoffs wait in its bounded outbox until the window's barrier,
    8192 per destination partition; overflow raises deterministically. *)
val set_topology :
  t ->
  lookahead:float ->
  partitions:int ->
  node_partition:(int -> int) ->
  unit

(** Current simulated time in nanoseconds. Inside a window this is the
    executing partition's clock. *)
val now : t -> float

(** Partition id of the executing event's context: inside a window,
    the partition whose drain is running on this domain; 0 everywhere
    else (setup code, between runs) — so a model can always use it to
    index per-partition state. *)
val current_partition : t -> int

(** [at t time f] schedules [f] to run at absolute [time]. Scheduling
    in the past raises [Invalid_argument]. [~node] assigns the event to
    the node's partition from two partitions up (ignored on one);
    untagged events inherit the scheduling event's partition. *)
val at : ?node:int -> t -> float -> (unit -> unit) -> unit

(** [after t delay f] schedules [f] to run [delay] ns from now. *)
val after : ?node:int -> t -> float -> (unit -> unit) -> unit

(** [run ?until t] executes events in order until the queue is empty or
    the next event is past [until]. Returns the number of events run.
    With more than one partition and domain this spawns (and joins) the
    worker domains for the span of the call, with the {!Ambient} slots
    switched to their DLS cells while they run; it must then be called
    on the main domain, and not from inside another multi-domain run
    ([Invalid_argument]). No run, of any engine, may be called from
    inside another engine's multi-domain run. An exception escaping an
    event ends the run at the window's barrier and is re-raised with
    its backtrace, with the calling domain's ambient state restored. *)
val run : ?until:float -> t -> int

(** Total events executed so far, counted at each window's barrier. *)
val events_run : t -> int

(** True if no events remain. *)
val idle : t -> bool

(** {2 Ambient attribution state}

    The engine owns the {!Attrib.state} frames that are installed as
    the calling domain's ambient context while the engine runs: its
    own, which is also the frame of its one partition, and one per
    partition once {!set_topology} installs several. Such a partition
    frame also tells {!now} and {!at} which partition is draining. *)

(** [with_attrib t f] runs [f] with the engine's ambient state
    installed — for setup code (e.g. the driver spawning workload
    processes) whose pre-run segments must see the same attribution
    state the run itself will (on a one-partition engine, the same
    frame). *)
val with_attrib : t -> (unit -> 'a) -> 'a

(** Enable/disable per-context resource accounting on the engine's
    ambient state (all partitions). *)
val set_attrib_enabled : t -> bool -> unit

(** Reset the ambient context(s) to {!Attrib.default}. *)
val reset_attrib : t -> unit

(** {2 Sanitizer plumbing}

    Used by the sim primitives; applications normally only call
    {!sanitize}. All three are no-ops on a non-strict engine. *)

(** Register an end-of-run invariant check. The check returns a list of
    human-readable violations (empty = clean) and is evaluated by every
    {!sanitize} call. *)
val register_check : t -> (unit -> string list) -> unit

(** Record a violation observed while the simulation runs (e.g. a
    continuation resumed twice). *)
val report_violation : t -> string -> unit

(** Evaluate every registered check plus the violations recorded during
    the run, in registration/occurrence order. Call when the simulation
    has quiesced; an empty list means the run was clean. *)
val sanitize : t -> string list
