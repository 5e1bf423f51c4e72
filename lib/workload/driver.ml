open Xenic_sim
open Xenic_proto

type spec = {
  name : string;
  generate : Rng.t -> node:int -> string * Types.t;
}

type result = {
  tput_per_server : float;
  median_latency_us : float;
  p99_latency_us : float;
  abort_rate : float;
  committed : int;
  aborted : int;
  duration_ns : float;
  metrics : Metrics.t;
  profile : Xenic_profile.Profile.t option;
}

type state = {
  mutable committed : int;
  mutable window_started : float;
  mutable last_commit : float;
}

(* Backoff after an abort, so a retry does not land in the same
   conflict/staleness window. *)
let abort_backoff_ns = 3_000.0

let run ?(seed = 1L) ?(warmup_frac = 0.15) ?coordinators ?trace ?sample_period_ns
    ?profile ?telemetry (sys : System.t) spec ~concurrency ~target =
  let engine = sys.System.engine in
  let coordinators =
    match coordinators with
    | Some cs -> cs
    | None -> List.init sys.System.cfg.Xenic_cluster.Config.nodes Fun.id
  in
  let load =
    Load.attach ?trace ?sample_period_ns ?profile ?telemetry sys
      ~coordinators:(List.length coordinators)
  in
  (* Occupancy integrals for the flight recorder, taken at transaction
     completions. The gauges are shared across slots, so this stays off
     on several partitions, where slots run concurrently on different
     domains. *)
  let occ =
    if Engine.partitions engine > 1 then None
    else Load.gauge load ~node:(-1) sys.System.util_sources
  in
  let warmup = int_of_float (float_of_int target *. warmup_frac) in
  let start = Engine.now engine in
  let st =
    {
      committed = 0;
      (* With zero warmup the [committed = warmup] anchor below can
         never fire (the counter is already past it on the first
         commit), so the window must start at the run start — anchoring
         at 0.0 inflates the duration on a reused engine. *)
      window_started = (if warmup = 0 then start else 0.0);
      last_commit = 0.0;
    }
  in
  let root = Rng.create ~seed in
  (* Once every slot has exited, stop background services (membership
     lease loops) so the engine can drain and [Engine.run] returns. *)
  let active_slots = ref (concurrency * List.length coordinators) in
  let slot_done () =
    decr active_slots;
    if !active_slots = 0 then Load.stop load
  in
  (* Spawn under the engine's ambient attribution state: each slot's
     first segment runs right here, before [Engine.run], and its
     context writes and resource accounting must hit the same state the
     run itself installs. *)
  Engine.with_attrib engine @@ fun () ->
  List.iteri (fun account node ->
    for _slot = 1 to concurrency do
      let rng = Rng.split root in
      Process.spawn engine (fun () ->
          let rec loop () =
            (* A slot whose coordinator node has crashed or been declared
               dead retires; surviving nodes drive the rest of the run. *)
            (* Target cutoff, pinned semantics: the check is made when a
               slot {e starts} a transaction, so slots already executing
               when the counter reaches [target] still finish and are
               recorded — the run overshoots by at most
               [concurrency * coordinators - 1] commits (every other
               slot had passed the check before the last one could).
               Cutting the recording off exactly at [target] would
               censor in-flight transactions by completion order, which
               is the kind of cross-slot coupling the measurement window
               must not depend on; the overshoot bound is asserted in
               test_workload.ml instead. *)
            if
              st.committed < target
              && Control.node_alive sys.System.control ~node
            then begin
              let cls, txn = spec.generate rng ~node in
              (* Attribution context for this transaction: everything the
                 slot causes — including remote handlers, via message
                 preservation — is charged to (stack, node, class). The
                 protocol layer refines the phase as it advances. *)
              Attrib.set
                { Attrib.stack = sys.System.name; node; phase = "txn"; cls };
              let t0 = Engine.now engine in
              let outcome = sys.System.run_txn ~node txn in
              let latency_ns = Engine.now engine -. t0 in
              Load.integrate occ;
              (match outcome with
              | Types.Committed ->
                  st.committed <- st.committed + 1;
                  st.last_commit <- Engine.now engine;
                  if st.committed = warmup then
                    st.window_started <- Engine.now engine
                  else if st.committed > warmup then
                    Load.record load account ~cls ~latency_ns outcome
              | Types.Aborted ->
                  (* With zero warmup the whole run is the measurement
                     window, including aborts that land before the first
                     commit — [committed > warmup] alone is 0 > 0 there
                     and would silently drop exactly the early-conflict
                     aborts an overload run front-loads. *)
                  if warmup = 0 || st.committed > warmup then
                    Load.record load account ~cls ~latency_ns outcome;
                  Process.sleep engine abort_backoff_ns);
              loop ()
            end
          in
          loop ();
          slot_done ())
    done) coordinators;
  ignore (Engine.run engine);
  Load.integrate occ;
  let metrics, profile =
    Load.finish load ~who:(Printf.sprintf "Driver.run (%s)" spec.name)
  in
  let committed = Metrics.committed metrics in
  (* An empty measurement window (warmup >= target, or no commit landed
     after warmup) reports an explicit zero-commit result instead of
     inventing a window length. *)
  let duration =
    if committed = 0 then 0.0 else st.last_commit -. st.window_started
  in
  if committed > 0 && Float.compare duration 0.0 <= 0 then
    invalid_arg
      (Printf.sprintf
         "Driver.run (%s): %d commits in a non-positive measurement \
          window (%.1f ns)"
         spec.name committed duration);
  {
    tput_per_server =
      (if committed = 0 then 0.0
       else
         float_of_int committed /. (duration /. 1e9)
         /. float_of_int (List.length coordinators));
    median_latency_us = Metrics.median_latency metrics /. 1_000.0;
    p99_latency_us = Metrics.p99_latency metrics /. 1_000.0;
    abort_rate = Metrics.abort_rate metrics;
    committed;
    aborted = Metrics.aborted metrics;
    duration_ns = duration;
    metrics;
    profile;
  }

let class_committed result ~cls = Metrics.committed_class result.metrics ~cls
