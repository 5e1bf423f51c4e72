(** Declarative fault/load scenarios.

    A scenario is a named, timed schedule of injections — crashes and
    recoveries, link cuts and heals, gray failures (loss, extra
    latency, slow or degraded NIC core pools) — plus an optional
    open-loop arrival schedule (rate/skew/hot-fraction phases). It is
    constructible in OCaml or parsed from a compact s-expression text,
    validated against structural and protocol-safety bounds, and
    compiled onto a deterministic simulation: every injection executes
    as an ordinary engine event (scheduled on the affected node's
    partition), so golden digests, the serializability oracle, the
    strict-engine sanitizer and telemetry keep working unchanged.

    Text form (times in simulated nanoseconds; [*] = every node;
    [;] starts a comment):

    {v
    (scenario
      (name lossy-links)
      (nodes 4)
      (rto-ns 1000)
      (at 20000 (loss * * 0.05))      ; retransmit probability
      (at 50000 (delay 0 1 4))        ; wire-latency multiplier
      (at 60000 (cut (0 1) (2 3)))    ; one-way cut {0,1} -> {2,3}
      (at 90000 (heal))               ; clears every cut
      (at 30000 (slow-nic 1 4))       ; NIC service-time multiplier
      (at 40000 (degrade-cores 1 2 60000)) ; 2 cores out for 60us
      (at 100000 (crash 2))
      (at 130000 (recover 2))
      (phase 200000 400000 0.9 0))    ; dur rate_tps theta hot_frac
    v} *)

type action =
  | Crash of int
  | Recover of int
  | Cut of { froms : int list; tos : int list }
      (** One-way: frames from [froms] to [tos] stall until healed.
          Symmetric partitions use two [Cut] events. *)
  | Heal  (** Clear every cut. *)
  | Loss of { src : int; dst : int; p : float }
      (** Per-transmission retransmit probability on src->dst; [-1]
          means every node on that side. *)
  | Delay of { src : int; dst : int; factor : float }
      (** Wire-latency multiplier (>= 1) on src->dst; [-1] wildcard. *)
  | Slow_nic of { node : int; factor : float }
      (** NIC service-time multiplier (>= 1); [1.0] restores. *)
  | Degrade_cores of { node : int; n : int; dur_ns : float }
      (** Take [n] NIC cores out of service for [dur_ns]. *)

type event = { at_ns : float; action : action }

type phase = {
  dur_ns : float;
  rate_tps : float;
  theta : float;
  hot_frac : float;
}

type t = {
  name : string;
  nodes : int;
  rto_ns : float;  (** Retransmit timeout lossy links pay per retry. *)
  events : event list;  (** Sorted by time (stable). *)
  phases : phase list;  (** Open-loop arrival schedule; [[]] = closed loop. *)
}

(** [make ~name ~nodes ?rto_ns ?phases events] sorts the events by time
    (stable) and fills defaults ([rto_ns] = 1000). *)
val make :
  name:string ->
  nodes:int ->
  ?rto_ns:float ->
  ?phases:phase list ->
  event list ->
  t

(** {2 Shape predicates} *)

(** Scenario contains crash/recover events — it must run on a system
    built with [armed = true]. *)
val has_crashes : t -> bool

(** Open-loop scenario (nonempty phase list). *)
val has_phases : t -> bool

(** Largest number of simultaneously-crashed nodes over the schedule.
    The harness requires this < replication. *)
val max_concurrent_crashes : t -> int

(** {2 Validation}

    Structural bounds (node ranges, probability/factor/duration
    ranges, crash/recover consistency) plus protocol-safety rules:

    - open-loop scenarios ([phases <> []]) exclude crash/recover (the
      open-loop driver has no membership support);
    - crash scenarios run with request timeouts armed, where a firing
      timeout must imply a dead peer — so they exclude cuts, slow-NIC
      and core degradation, and bound loss retransmit cost
      ([Fabric.max_retransmits * rto_ns <= 5000]) and delay factors
      (<= 2) to keep worst-case gray delay under the timeout slack. *)
val validate : t -> (unit, string) result

(** [validate_exn t] raises [Invalid_argument] with the message. *)
val validate_exn : t -> unit

(** {2 Text form} *)

(** Files go through {!save_file}; test_scenario's text round-trip cases need
    the string itself. *)
val to_string : t -> string

(** Files go through {!load_file}; test_scenario's parser cases need the
    string itself. *)
val of_string : string -> (t, string) result

val load_file : string -> (t, string) result

val save_file : string -> t -> unit

(** {2 Compilation onto a run} *)

(** [inject t sys ~seed] schedules every event of the scenario as an
    ordinary engine event, relative to the current simulated instant:
    link events run on the source node's partition, NIC events on
    their node's partition — legal on one partition and on several
    alike. If the scenario touches link state, the
    fabric's fault lane is enabled first with [seed]/[rto_ns]. Call
    after building the system and before [Driver.run]/[Openloop.run].
    Raises [Invalid_argument] if the scenario fails {!validate} or its
    [nodes] differs from the system's. *)
val inject : t -> Xenic_proto.System.t -> seed:int64 -> unit

(** Open-loop phases in [Openloop.run] form. *)
val openloop_phases : t -> Xenic_workload.Openloop.phase list

(** [scale_times t f] multiplies every event time, phase duration and
    degradation duration by [f] (> 0) — quick-mode scaling. *)
val scale_times : t -> float -> t
