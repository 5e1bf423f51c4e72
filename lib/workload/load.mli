(** The load core under {!Driver} (closed loop) and {!Openloop} (open
    loop). A front end decides when transactions start and which
    outcomes fall in its measurement window; the core holds what both
    share:

    - the run's observers, attached in one place ({!attach}) and
      released in one epilogue ({!finish});
    - per-coordinator window metrics ({!record}), merged in coordinator
      order at the end, so the merge does not depend on how many
      domains ran the coordinators;
    - occupancy integrals for the flight recorder ({!gauge},
      {!integrate}), taken inside events the run already has. *)

type t

(** [attach sys ~coordinators] installs the run's observers on [sys]
    and opens [coordinators] window accounts.

    [telemetry] is attached to the system, with an accounting [cutoff]
    when one is given. [trace] is attached (or detached when absent);
    [profile] enables time attribution from this instant and, without a
    [trace], attaches an internal one for critical-path extraction.
    With a trace, a utilization sampler polls the system's gauges every
    [sample_period_ns] until {!stop}. *)
val attach :
  ?trace:Xenic_sim.Trace.t ->
  ?sample_period_ns:float ->
  ?profile:bool ->
  ?telemetry:Xenic_telemetry.Telemetry.t ->
  ?cutoff:float ->
  Xenic_proto.System.t ->
  coordinators:int ->
  t

(** [record t i ~cls ~latency_ns outcome] counts one outcome inside the
    measurement window of coordinator account [i]. *)
val record :
  t -> int -> cls:string -> latency_ns:float -> Xenic_proto.Types.outcome -> unit

(** A set of occupancy gauges integrated into the flight recorder. *)
type gauge

(** [gauge t ~node sources] starts integrating the gauges [sources ()]
    lists at the current instant, recorded against [node]; [None]
    without telemetry, and then [sources] is not called. *)
val gauge :
  t -> node:int -> (unit -> (string * (unit -> float)) list) -> gauge option

(** Integrate each gauge's current reading backward over the span since
    the previous reading. Event-free: call it from an event the run
    already has. *)
val integrate : gauge option -> unit

(** Stop the sampler and the system's background services (membership
    lease loops), so the engine can drain. Idempotent. *)
val stop : t -> unit

(** The run epilogue, after [Engine.run] returns: {!stop}, seal and
    detach the telemetry, drain the system ([System.drain ~who]),
    collect the profile. Returns the window metrics merged in
    coordinator order, and the profile when one was requested. *)
val finish :
  t -> who:string -> Xenic_proto.Metrics.t * Xenic_profile.Profile.t option
