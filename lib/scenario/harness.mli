(** Run a scenario end to end on any stack, under the full safety net.

    The harness owns the boilerplate the corpus tests and the fuzzer
    share: build a system (strict engine — the sanitizer is always
    on), load a workload, attach a serializability oracle, inject the
    scenario, drive it, and check the oracle before reporting. A
    closed-loop scenario ([phases = []]) runs Smallbank under
    [Driver.run]; crash scenarios build the stack armed
    ([armed = true] in its params: request deadlines, the fenced commit
    point and a lease-based membership). An open-loop
    scenario runs Retwis through [Openloop.run] on a partitioned
    system ([partitions = 2]), so [XENIC_DOMAINS] exercises the
    windowed parallel engine. *)

type outcome = {
  committed : int;
  aborted : int;
  oracle_txns : int;
  digest : string;
      (** Lossless ([%h] floats, every counter): equal digests mean
          bit-identical runs. *)
  counters : (string * float) list;
}

val counter : outcome -> string -> float

(** [run ~stack ~seed scn] validates, injects and drives [scn],
    raising [Failure] on a serializability violation. [domains] is the
    open-loop engine's domain budget (default: [XENIC_DOMAINS], or 1):
    those runs are windowed on 2 partitions, and their digests are
    domain-count-invariant. Closed-loop runs ignore it and use the
    one-partition engine.
    [concurrency]/[target] shape the closed-loop run only. Requires
    [max_concurrent_crashes < replication] (= 3, or [nodes] if
    smaller). *)
val run :
  ?domains:int ->
  ?concurrency:int ->
  ?target:int ->
  stack:Xenic_proto.System.stack ->
  seed:int64 ->
  Scenario.t ->
  outcome
