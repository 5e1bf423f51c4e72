(** Open-loop load generator with per-coordinator admission control.

    Where {!Driver} is closed-loop (a fixed number of outstanding slots,
    each issuing its next transaction the moment the previous one
    finishes — offered load adapts to service capacity), this driver is
    open-loop: arrivals follow a Poisson process at a configured offered
    rate regardless of how the system is keeping up, which is the only
    way to observe overload, queueing delay and admission shedding.

    Arrivals model a logical user population far larger than the
    connection count: each arrival belongs to one of [users] logical
    users, drawn from a sliding "active session" window that churns
    through the population over time. Per-arrival randomness derives
    from the (user, sequence) pair with {!Xenic_sim.Rng.derive}, so
    results are bit-deterministic for a seed — no wall clock anywhere.

    The run is a sequence of {!phase}s; each sets the cluster-wide
    offered rate, the Zipf skew [theta] the workload samples keys with,
    and a [hot_frac] of arrivals redirected at the workload's hot set (a
    Retwis "celebrity flash crowd" when both spike).

    Each coordinator owns a bounded admission queue
    ({!Xenic_proto.Admission}): arrivals beyond the depth limit or
    during NIC-ingress backpressure are shed at arrival, and dequeued
    requests that already outlived the deadline are dropped instead of
    serviced. Sheds are recorded in the system's metrics as aborts with
    reason {!Xenic_proto.Metrics.Shed}. Optional client-side [retries]
    re-offer aborted transactions to admission — the retry-storm
    ingredient that makes un-bounded queues metastable.

    Arrivals and admission are the open loop's front end on the load
    core it shares with {!Driver}: observers are attached, outcomes
    counted per coordinator and the run drained by the same code.

    All mutable driver state is per-coordinator and the per-coordinator
    processes are pinned to their node's partition, so the driver runs
    unchanged on windowed multi-domain engines ([partitions > 1] system
    configs under [XENIC_DOMAINS]). Membership, tracing and profiling
    are not supported here — those are armed, cross-partition features;
    use the closed-loop {!Driver} for them. *)

open Xenic_proto

(** One segment of the offered-load schedule. *)
type phase = {
  duration_ns : float;  (** phase length in simulated ns, > 0 *)
  rate_tps : float;  (** cluster-wide offered load, txns/s, > 0 *)
  theta : float;  (** Zipf skew for key sampling during this phase *)
  hot_frac : float;
      (** fraction of arrivals aimed at the workload's hot set,
          in [0, 1] *)
}

(** An open-loop workload. [make] is called once per coordinator before
    the run starts, so any state it allocates (e.g. a {!Zipf.cache}) is
    owned by that coordinator alone — never shared across partitions.
    The returned generator builds one transaction from the arrival's
    derived RNG, the current phase's [theta], and whether this arrival
    targets the hot set. *)
type workload = {
  name : string;
  make :
    nodes:int ->
    node:int ->
    (Xenic_sim.Rng.t -> theta:float -> hot:bool -> string * Types.t);
}

(** Per-phase arrival accounting (outcomes are attributed to the
    phase the request {e arrived} in, which is what makes recovery — or
    metastable non-recovery — after a burst visible in the post-burst
    phase's numbers). Completions landing after the arrival schedule
    ends are NOT counted anywhere in the driver's statistics: backlog
    the system only manages to serve during the post-run drain is lost
    goodput, not goodput — without this cutoff an unbounded queue would
    look as good as a bounded one once the run drains. (The system's
    own metrics still record every outcome.) *)
type phase_stat = {
  p_offered : int;
  p_admitted : int;
  p_committed : int;
  p_aborted : int;  (** protocol aborts (after any retries) *)
  p_shed : int;  (** all causes, arrival sheds + deadline drops *)
}

(** Whole-schedule totals. There is no warmup: the measurement window
    is the arrival schedule itself, so [offered], [admitted],
    [committed], [aborted] and [shed_total] each equal the sum of the
    matching {!phase_stat} field over [per_phase]. *)
type result = {
  offered : int;  (** arrivals over the whole schedule *)
  admitted : int;
  committed : int;
  aborted : int;  (** protocol aborts (non-shed, after retries) *)
  retried : int;  (** client-side retry re-submissions *)
  shed : (string * int) list;
      (** shed count per {!Admission.cause}, in {!Admission.all_causes}
          order *)
  shed_total : int;
  goodput_tps : float;  (** cluster-wide committed/s over the schedule *)
  median_latency_us : float;
      (** arrival-to-commit (queue wait included) *)
  p99_latency_us : float;
  duration_ns : float;  (** total length of the phase schedule *)
  per_phase : phase_stat array;
  metrics : Metrics.t;
      (** driver metrics up to the end of the schedule (commit/abort
          classes + arrival latencies); sheds are not recorded here —
          read them from the [shed] fields or the system's own
          metrics *)
}

(** [run sys wl ~phases] drives [wl] through the phase schedule and
    returns its statistics. [admission] configures
    every coordinator's queue ({!Admission.unlimited} by default).
    [service_slots] is the number of request-serving processes per
    coordinator; [retries] the client-side re-submissions per aborted
    transaction (0 by default). [users] sizes the logical population;
    5% of it is active at a time, and the active window slides every
    2 ms of simulated time. Every node coordinates.

    [telemetry] attaches a windowed flight recorder sharing the run's
    accounting cutoff (the end of the arrival schedule): offered /
    admitted / shed arrivals, queue-depth samples and coordinator
    ingress-occupancy integrals stream in from the driver, commits and
    aborts from the system, and everything landing during the
    post-schedule drain is dropped. The recorder is sealed and
    detached before [run] returns. *)
val run :
  ?seed:int64 ->
  ?admission:Admission.config ->
  ?service_slots:int ->
  ?retries:int ->
  ?users:int ->
  ?telemetry:Xenic_telemetry.Telemetry.t ->
  System.t ->
  workload ->
  phases:phase list ->
  result
