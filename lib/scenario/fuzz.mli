(** Seed-driven scenario fuzzer: generate always-valid random
    scenarios within bounds, and shrink a failing scenario to a
    minimal reproducer.

    Generation is deterministic in the seed; the same
    (seed, bounds) pair always yields the same scenario, so a failure
    report of "seed N" is itself a reproducer even before shrinking. *)

type bounds = {
  nodes : int;  (** cluster size scenarios are generated for *)
  max_events : int;  (** upper bound on injected events *)
  horizon_ns : float;  (** events land in [0, horizon_ns] *)
  allow_crash : bool;
      (** permit crash/recover pairs (armed harness; excludes cuts,
          slow-NIC and core degradation per {!Scenario.validate}) *)
  allow_cut : bool;  (** permit cut/heal pairs (un-armed only) *)
  allow_phases : bool;  (** permit open-loop phase schedules *)
}

(** The fuzzer is test tooling: test_scenario's fuzz cases use it. *)
val default_bounds : bounds

(** [generate ~seed bounds] builds a random scenario that always
    passes {!Scenario.validate}: crashes come paired with recoveries
    (never sinking below quorum), cuts come with a trailing heal,
    factors and probabilities stay inside the validator's ranges, and
    event times are quantized to 1000 ns so shrunk schedules stay
    readable. Only test_scenario's fuzz cases call it. *)
val generate : seed:int64 -> bounds -> Scenario.t

(** [minimize ~fails scn] greedily shrinks [scn] while [fails] keeps
    returning [true] on the candidate: it tries dropping each event,
    halving event times, and shrinking factors/probabilities toward
    their identity values, accepting any still-failing, still-valid
    candidate. Each accepted step strictly decreases a finite measure
    (event count, then summed times and factor excess), so shrinking
    terminates. Returns the smallest failing scenario found; [fails]
    must be deterministic. Only test_scenario's shrink cases call it. *)
val minimize : fails:(Scenario.t -> bool) -> Scenario.t -> Scenario.t

(** [write_reproducer ~dir scn] saves [scn] as
    [dir/<name>.repro.scn] and returns the path.
    Only test_scenario's reproducer case calls it. *)
val write_reproducer : dir:string -> Scenario.t -> string
