(** Closed-loop benchmark driver.

    Each node runs [concurrency] transaction slots; each slot generates
    a transaction, submits it, records the outcome, and repeats until
    the cluster-wide committed-transaction target is reached. The first
    [warmup_frac] of commits are excluded from the measurement window.
    Per-server throughput is committed transactions divided by window
    duration and node count — the y/x axes of Fig 8.

    The slots are the closed loop's front end on the load core it
    shares with {!Openloop}: observers are attached, outcomes counted
    per coordinator and the run drained by the same code. *)

type spec = {
  name : string;
  generate : Xenic_sim.Rng.t -> node:int -> string * Xenic_proto.Types.t;
      (** Produce a transaction and its class label for one attempt. *)
}

type result = {
  tput_per_server : float;  (** Committed txns per second per server. *)
  median_latency_us : float;
  p99_latency_us : float;
  abort_rate : float;
  committed : int;
  aborted : int;
  duration_ns : float;  (** Measurement window length. *)
  metrics : Xenic_proto.Metrics.t;
  profile : Xenic_profile.Profile.t option;
      (** Time-attribution profile; [Some] iff run with [~profile:true]. *)
}

(** [run sys spec ~concurrency ~target] drives the system until
    [target] transactions have committed. [seed] defaults to 1;
    aborted attempts back off 3us before retrying. After the engine
    drains, the system's oracle buffers are flushed ([sys.System.sync]), so
    an attached oracle holds every commit of the run.

    Mid-run crashes are ordinary engine events scheduled before the
    run, e.g. by [Xenic_scenario.Scenario.inject]. Slots coordinated at
    a crashed or declared-dead node retire; surviving nodes finish the
    run.

    [trace] attaches a deterministic trace for the run: protocol
    phases become spans, aborts/retries/recovery become instants, and
    a resource-utilization sampler polls the system's occupancy gauges
    every [sample_period_ns] (default 10us) until the last slot exits.

    If no commit lands inside the measurement window (e.g. warmup
    consumed every commit), the result reports zero throughput and a
    zero-length window rather than a fabricated one.

    [profile] (default false) enables per-resource time attribution
    ({!Xenic_sim.Attrib}) for the run and returns the collected
    {!Xenic_profile.Profile.t} in the result; if no [trace] was given,
    an internal one records the transaction spans critical-path
    extraction needs.

    [telemetry] attaches a windowed flight recorder for the run: the
    system streams commits/aborts into it, resource occupancy is
    integrated at transaction completions (off in windowed
    conservative mode, where slots run concurrently),
    and the recorder is sealed — [t_end] fixed at the drain instant —
    and detached before [run] returns. *)
val run :
  ?seed:int64 ->
  ?warmup_frac:float ->
  ?coordinators:int list ->
  ?trace:Xenic_sim.Trace.t ->
  ?sample_period_ns:float ->
  ?profile:bool ->
  ?telemetry:Xenic_telemetry.Telemetry.t ->
  Xenic_proto.System.t ->
  spec ->
  concurrency:int ->
  target:int ->
  result

(** Committed count for one transaction class within [result]. *)
val class_committed : result -> cls:string -> int
