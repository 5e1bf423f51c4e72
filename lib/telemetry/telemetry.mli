(** Deterministic time-series flight recorder.

    A [Telemetry.t] buckets simulated time into fixed-width windows
    ({!Xenic_sim.Wclock} semantics: half-open windows, edge events go
    right, the final window is clipped to — and closed at — the
    accounting cutoff [t_end]) and records, per window and per series
    dimension (stack x node x recording partition x free-form label):

    - committed / aborted-by-reason transaction counts,
    - offered / admitted arrivals and sheds by admission cause,
    - admission queue depth samples (event-driven, at offer points),
    - resource occupancy integrals (busy-ns per window, computed by
      splitting piecewise-constant gauge spans across window
      boundaries — no sampling events),
    - service-latency histogram shards ({!Xenic_stats.Histogram}).

    Observation is {e event-free}: recording happens inside existing
    simulation events and never schedules any of its own, so attaching
    a recorder to a run cannot perturb it — a traced run and an
    untraced run of the same seed execute identically.

    Recording is sharded per engine partition, because windowed
    partitions execute concurrently: the writer's
    {!Xenic_sim.Engine.current_partition} selects the shard, and is
    also the [part] dimension of every series the shard produces.
    Shards are merged in partition-index order. A one-partition engine
    records into one shard with [part = 0]. The shard choice depends
    only on the installed topology, never on the domain count, so
    exported series are byte-identical across [XENIC_DOMAINS=1] and
    [2].

    Lifecycle: [create] anchors [t0] at the engine's current time;
    recorders accumulate during the run; [seal] fixes [t_end] and
    freezes the recorder; only then can series be read or exported.
    With {!set_cutoff} (the open-loop pattern: cutoff = end of the
    arrival schedule, set before the run), recordings strictly after
    the cutoff are dropped — post-schedule drain cannot leak into
    accounting windows. *)

type t

(** [create ?window_ns engine] — a recorder anchored at the engine's
    current simulated time. Default window: 100 us. *)
val create : ?window_ns:float -> Xenic_sim.Engine.t -> t

val t0 : t -> float

(** Accounting cutoff: recordings with [now > cutoff] are dropped, and
    [seal] clips [t_end] to the cutoff even if the engine drained past
    it. Must be at or after [t0]. *)
val set_cutoff : t -> float -> unit

(** Fix [t_end] (the cutoff if one was set and the clock passed it,
    else the current time) and freeze the recorder; recordings after
    [seal] are ignored. Idempotent. *)
val seal : t -> unit

(** Cutoff-clipped end of the accounting interval. Raises if not yet
    sealed. test_telemetry checks the cutoff with it. *)
val t_end : t -> float

(** Number of windows in [[t0, t_end]]. Raises if not yet sealed.
    test_telemetry checks the window count with it. *)
val n_windows : t -> int

(** {2 Recording}

    All recorders stamp the event at the engine's current time and
    write the shard of the calling partition. [label] is the free-form
    series slot — transaction class, usually — defaulting to ["-"]. *)

val record_commit :
  ?label:string -> t -> stack:string -> node:int -> latency_ns:float -> unit

val record_abort :
  ?label:string ->
  t ->
  stack:string ->
  node:int ->
  reason:string ->
  latency_ns:float ->
  unit

val record_offered : ?label:string -> t -> stack:string -> node:int -> unit

val record_admitted : ?label:string -> t -> stack:string -> node:int -> unit

val record_shed :
  ?label:string -> t -> stack:string -> node:int -> cause:string -> unit

(** Event-driven queue depth sample (mean / max per window are over the
    samples taken, not time-weighted). *)
val sample_queue :
  ?label:string -> t -> stack:string -> node:int -> depth:int -> unit

(** [add_occupancy t ~stack ~node ~resource ~from ~until ~value] adds
    [value * overlap] busy-ns to every window overlapping the
    piecewise-constant gauge span [[from, until]] (clipped to the
    cutoff when one is set). *)
val add_occupancy :
  t ->
  stack:string ->
  node:int ->
  resource:string ->
  from:float ->
  until:float ->
  value:float ->
  unit

(** {2 Reading} *)

(** One merged series cell. Association lists are sorted by key;
    [s_lat] is the merged latency shard for the cell. *)
type series = {
  win : int;
  stack : string;
  node : int;
  part : int;
  label : string;
  s_offered : int;
  s_admitted : int;
  s_committed : int;
  s_aborted : (string * int) list;
  s_shed : (string * int) list;
  s_lat : Xenic_stats.Histogram.t;
  s_q_samples : int;
  s_q_mean : float;
  s_q_max : int;
  s_occ : (string * float) list;
}

(** All cells, sorted by (win, stack, node, part, label) — the
    deterministic export order. Requires [seal].
    test_telemetry and test_golden read the cells with it. *)
val series : t -> series list

(** Cluster-wide per-window rollup (all dimensions folded), the
    detector input: each window's cells merged in {!series} order. *)
type agg = {
  a_win : int;
  a_start_ns : float;
  a_width_ns : float;  (** clipped: the final window may be partial *)
  a_offered : int;
  a_admitted : int;
  a_committed : int;
  a_aborted : int;
  a_shed : int;
  a_lat : Xenic_stats.Histogram.t;
  a_q_mean : float;
}

(** One agg per window, index = window. Requires [seal]. *)
val rollup : t -> agg array

(** {2 Export} *)

(** Flat BENCH-style JSON ([{"experiment": id, "description": ...,
    "metrics": {...}}]) so [xenicctl bench diff] gates it byte for
    byte. Ints print exactly; floats use [%.6g]. Requires [seal]. *)
val to_json : t -> id:string -> description:string -> string

(** OpenMetrics text exposition (TYPE metadata before samples, counters
    suffixed [_total], terminated by [# EOF]). Requires [seal]. *)
val to_openmetrics : t -> string

(** Structural validity check for OpenMetrics text: metadata precedes
    samples, counter samples end in [_total], sample lines parse, the
    last line is [# EOF]. *)
val validate_openmetrics : string -> (unit, string) result
