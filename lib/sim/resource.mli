(** FCFS multi-server resource: the queueing building block for CPU
    cores, DMA engine queues, link serialization, and RDMA processing
    units.

    A resource has [servers] identical units. {!acquire} grants a unit or
    parks the caller in FIFO order; {!use} wraps acquire/hold/release,
    and {!use_then} is the same hold as a callback chain, for device
    pipelines that run without a process. {!hold_then} and
    {!release_as} are that chain's two halves, for pipelines that bring
    their own continuation and context.
    Busy-time is integrated so experiments can report utilization. *)

type t

(** [create engine ~name ~servers] makes a resource. On a strict engine
    it registers a sanitizer check: units still held (or acquirers still
    blocked) when {!Engine.sanitize} runs are reported as leaks. *)
val create : Engine.t -> name:string -> servers:int -> t

val name : t -> string

val servers : t -> int

(** Currently queued acquirers. *)
val queue_length : t -> int

(** Server units held right now (instantaneous occupancy, for
    utilization-timeline sampling). *)
val in_use : t -> int

(** Block until a server unit is available, then take it. *)
val acquire : t -> unit

(** [acquire_then t k] is {!acquire} in callback form, callable from
    any event: it takes a unit for the ambient context and runs [k] at
    once, or queues (FIFO with blocking acquirers) and runs [k] from the
    zero-delay event of the release that hands it the unit. [k] runs
    under whatever context is ambient then. *)
val acquire_then : t -> (unit -> unit) -> unit

(** Return a unit, waking the oldest waiter if any. Raises
    [Invalid_argument] if released more times than acquired. *)
val release : t -> unit

(** [release_as t ctx] is {!release} of a unit held under [ctx]: the
    grant is closed against [ctx], not the ambient context. *)
val release_as : t -> Attrib.ctx -> unit

(** [use t duration] acquires a unit, holds it for [duration] ns of
    simulated service, and releases it. *)
val use : t -> float -> unit

(** [use_then t duration k] is {!use} in callback form, callable from
    any context: it takes a unit (or queues for one, FIFO with blocking
    acquirers), holds it for [duration] ns, releases it, then runs [k].
    The caller's attribution context is in effect around the release
    and [k], and the ambient context is restored after them. *)
val use_then : t -> float -> (unit -> unit) -> unit

(** [hold_then t ctx duration k] is {!use_then} without the release and
    without a closure of its own: it takes a unit for [ctx] (or queues
    for one, FIFO with blocking acquirers, accounted to [ctx]) and runs
    [k] as an engine event [duration] ns after the grant. [k] must end
    the hold with [release_as t ctx]. It neither reads nor changes the
    ambient context; [k] runs under whatever context is ambient then. *)
val hold_then : t -> Attrib.ctx -> float -> (unit -> unit) -> unit

(** Fraction of capacity busy since creation (integrated), in [0, 1]. *)
val utilization : t -> float

(** Total busy server-nanoseconds accumulated. *)
val busy_time : t -> float

(** {2 Per-context attribution (profiler)}

    While [Attrib.enabled], every completed acquire records its queue
    wait and every release records the grant's service time, attributed
    to the ambient {!Attrib} context. *)

(** Immutable snapshot of one context's accounting. *)
type stat_view = {
  v_wait_ns : float;  (** summed queue waits (zero-wait grants included) *)
  v_waits : int;  (** completed grants, i.e. acquires that went through *)
  v_service_ns : float;  (** summed hold times of closed grants *)
  v_services : int;  (** closed grants *)
}

(** Accounting per context, in {!Attrib.compare_ctx} order
    (deterministic). After all grants are released, summed
    [v_service_ns] equals {!busy_time} to within float rounding (the
    two are different partitions of the same busy intervals). *)
val stats : t -> (Attrib.ctx * stat_view) list

(** Time-integral of the queue length (waiter-nanoseconds) — the
    Little's-law cross-check: once the queue is empty this equals the
    sum of all recorded waits exactly. *)
val queue_area : t -> float
