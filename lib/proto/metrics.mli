(** Per-run measurement collection: commit latencies, outcome counts,
    abort accounting (counts and the reason taxonomy), per-phase latency histograms, and device/communication
    accounting, reported by the workload driver and experiment
    harness. *)

(** Why a transaction attempt aborted. Every abort path in the
    protocol stacks maps to exactly one reason. *)
type abort_reason =
  | Lock_conflict  (** failed to acquire a record lock *)
  | Validation_failure  (** OCC read-set version check failed *)
  | Timeout  (** a request deadline expired *)
  | Stale_epoch  (** fenced: epoch advanced under the transaction *)
  | Crashed_owner  (** a participant or the coordinator died mid-flight *)
  | Shed
      (** dropped by admission control before execution: queue full,
          ingress backpressure, or a deadline it could no longer meet *)

val abort_reason_name : abort_reason -> string

(** All reasons, in a fixed reporting order. *)
val all_abort_reasons : abort_reason list

type t

val create : unit -> t

(** Record one transaction attempt's latency (ns) and outcome.
    Committed latencies feed the commit histogram; an aborted attempt
    counts towards {!aborted} and {!abort_rate}, and its latency is
    not kept. *)
val record : t -> latency_ns:float -> Types.outcome -> unit

(** {!record} with a transaction-class label (e.g. "new_order"), so
    benchmarks can report per-class commits ({!committed_class}). *)
val record_class : t -> cls:string -> latency_ns:float -> Types.outcome -> unit

(** Count one abort against its taxonomy reason. *)
val record_abort_reason : t -> abort_reason -> unit

val abort_reason_count : t -> abort_reason -> int

(** [(name, count)] for every reason in {!all_abort_reasons} order. *)
val abort_reason_counts : t -> (string * int) list

(** Record one phase latency sample (ns), e.g. [~phase:"validate"]. *)
val record_phase : t -> phase:string -> float -> unit

(** Phase histograms, sorted by phase name. *)
val phase_stats : t -> (string * Xenic_stats.Histogram.t) list

val committed : t -> int

val aborted : t -> int

val committed_class : t -> cls:string -> int

val median_latency : t -> float

val p99_latency : t -> float

val abort_rate : t -> float

val counters : t -> Xenic_stats.Counter.t

(** Merge [src] into [into] (per-node metrics -> cluster metrics). *)
val merge : into:t -> t -> unit
