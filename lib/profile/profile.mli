(** Time-attribution profiler: turns the per-context wait/service
    accounting of {!Xenic_sim.Resource} and the transaction spans of
    {!Xenic_sim.Trace} into a bottleneck report, a collapsed-stack
    flamegraph, and per-transaction critical paths.

    Every output is deterministic: rows and lines are sorted by
    explicit comparators over simulated-time quantities only, so
    same-seed runs render byte-identical text. *)

(** One (resource, context) accounting cell. *)
type cell = {
  c_ctx : Xenic_sim.Attrib.ctx;
  c_wait_ns : float;
  c_waits : int;
  c_service_ns : float;
  c_services : int;
}

(** One resource's aggregate accounting over the measured window. *)
type row = {
  r_label : string;
  r_servers : int;
  r_busy_ns : float;  (** integrated busy server-ns ({!Xenic_sim.Resource.busy_time}) *)
  r_utilization : float;  (** busy / (servers * elapsed), in [0, 1] *)
  r_service_ns : float;  (** Σ attributed service over all contexts *)
  r_wait_ns : float;  (** Σ attributed queue wait over all contexts *)
  r_acquires : int;  (** completed grants *)
  r_mean_wait_ns : float;  (** wait / acquires (0 when idle) *)
  r_queue_area : float;  (** ∫ queue-length dt, waiter-ns *)
  r_mean_qlen : float;  (** queue_area / elapsed — Little's-law queue length *)
  r_cells : cell list;  (** per-context cells, {!Xenic_sim.Attrib.compare_ctx} order *)
}

(** One critical-path segment: a protocol phase (or "other" for time
    between recorded phases). *)
type seg = { s_name : string; s_dur_ns : float }

(** One committed transaction's critical path, sliced from its outer
    "txnlat" span: segments partition [p_dur_ns] exactly. *)
type path = {
  p_node : int;
  p_seq : int;
  p_cls : string;
  p_start_ns : float;
  p_dur_ns : float;
  p_segs : seg list;
}

type t = {
  stack : string;
  elapsed_ns : float;
  rows : row list;  (** busy resources, utilization-descending *)
  paths : path list;  (** committed txns, (start, node, seq) order *)
}

(** Opaque pre-measurement snapshot. Busy time and queue area integrate
    from resource creation; snapshotting at Attrib-enable time and
    passing the result to {!collect} restricts both to the measured
    window (attributed stats are already gated on [Attrib.enabled]). *)
type baseline

val baseline : (string * Xenic_sim.Resource.t) list -> baseline

(** [collect ~stack ~resources ?baseline ?trace ~elapsed_ns ()] snapshots
    every labeled resource and, when a trace is given, extracts committed
    transactions' critical paths from its "txnlat"/"txn" spans.
    [elapsed_ns] is the measured-window length used for utilization and
    mean queue length. *)
val collect :
  stack:string ->
  resources:(string * Xenic_sim.Resource.t) list ->
  ?baseline:baseline ->
  ?trace:Xenic_sim.Trace.t ->
  elapsed_ns:float ->
  unit ->
  t

(** Bottleneck report: per-resource utilization/wait/service table (with
    the Little's-law queue length), a resource × phase service-time
    matrix, and the top 5 critical-path shapes by total time.
    Deterministic text. *)
val report : t -> string

(** Collapsed-stack flamegraph ("folded" format, one
    [frame;frame;... weight] line per non-zero cell, weights in integer
    ns, lines sorted): service and wait time per
    stack;node;class;phase;resource. Feed to any flamegraph renderer. *)
val folded : t -> string

(** [(label, busy_ns, attributed_service_ns)] per busy resource — the
    accounting cross-check: the two agree to within float rounding once
    every grant is released. *)
val busy_agreement : t -> (string * float * float) list

(** [(label, queue_area, attributed_wait_ns)] per busy resource — the
    Little's-law cross-check: with the queue drained and all waits
    recorded inside the window, the two are equal.
    Only test_profile reads it, to assert the law on a drained run. *)
val little_check : t -> (string * float * float) list

(** [(frac, blind)]: the share of committed critical-path time that no
    phase span names (["other"] segments), and how many paths are
    ["other"] alone. A path whose attempt's phase spans went to
    another track shows up in both. *)
val other_share : t -> float * int
