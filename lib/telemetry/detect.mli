(** Online anomaly detectors over telemetry window rollups.

    Every detector is a pure function of a {!Telemetry.rollup} array —
    deterministic, no thresholds hidden in mutable state — and returns
    a {!verdict} whose [detail] names the windows and magnitudes
    behind the call, so a flagged run is explainable from the verdict
    alone. Each threshold is a fixed constant of this module (DESIGN
    §14 lists them). *)

type verdict = { flagged : bool; detail : string }

(** Retry-storm / metastability: an offered-load burst (window offered
    > 2x the median offered) whose degraded state outlives it — at
    least 3 consecutive post-burst windows that are either
    goodput-collapsed (committed below 0.5x the pre-burst mean) or
    backlogged (mean queue depth above 4x the pre-burst depth, and
    above 64). The backlog arm matters because an unbounded queue
    serves stale storm leftovers at full rate — healthy-looking goodput
    while fresh arrivals queue behind work nobody is waiting for. *)
val retry_storm : Telemetry.agg array -> verdict

(** Unbounded queue-growth trend: a run of 4+ windows with
    non-decreasing mean queue depth that ends at least 64 deep and at
    least 4x its starting depth. The depth floor keeps a bounded queue
    riding at its (small) capacity from flagging. *)
val queue_growth : Telemetry.agg array -> verdict

(** Little's-law residual divergence: per window, the backlog residual
    [L - lambda * W] (mean queue depth minus arrival rate x mean
    latency, both over the window). A system keeping up holds the
    residual near zero; a diverging one accumulates un-served backlog.
    Flags 3+ consecutive windows with residual above 32 and
    non-decreasing. *)
val littles_law : Telemetry.agg array -> verdict

(** A latency service-level objective: [target] fraction of offered
    requests should commit within [latency_ns]. *)
type slo = { latency_ns : float; target : float }

(** SLO burn rate: per window, [bad = offered - commits within
    latency_ns]; burn = bad-fraction / error-budget (1 - target). Burn
    1.0 consumes budget exactly as fast as allowed; flags when the
    burn rate averaged over the whole run exceeds 1.0. *)
val slo_burn : slo -> Telemetry.agg array -> verdict

(** [all slo aggs]: the four window detectors above, named and in this
    order: ["retry-storm"], ["queue-growth"], ["littles-law"],
    ["slo-burn"]. *)
val all : slo -> Telemetry.agg array -> (string * verdict) list

(** [time_to_recovery ~after_ns aggs]: sim-ns from [after_ns] (the
    fault instant, on the same clock as [a_start_ns]) until the outage
    is over — the start of the first 3-window streak of windows whose
    committed rate regains 0.5 of the pre-fault mean, searching after
    the {e first} degraded window. Anchoring past the first degraded
    window is the MTTR convention: the window right after a fault is
    often still healthy (the failure surfaces only once timeouts fire),
    so first-healthy-window would report an instant, meaningless
    recovery; requiring a sustained streak tolerates single-window
    rate noise late in the run. Only windows entirely inside
    [[after_ns, until_ns]] are considered (default: all) — pass the
    run's end so a partial tail window is not read as a rate collapse.
    When no window ever degraded, recovery is the first eligible
    window (an essentially-zero TTR). [None] when the run never
    recovers (no sustained streak), has no eligible windows, or has no
    pre-fault baseline. *)
val time_to_recovery :
  after_ns:float ->
  ?until_ns:float ->
  Telemetry.agg array ->
  float option
