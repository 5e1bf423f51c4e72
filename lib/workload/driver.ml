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
  mutable window_committed : int;
  mutable last_commit : float;
  warmup : int;
  target : int;
}

(* Backoff after an abort, so a retry does not land in the same
   conflict/staleness window. *)
let abort_backoff_ns = 3_000.0

let run ?(seed = 1L) ?(warmup_frac = 0.15) ?coordinators ?trace ?(sample_period_ns = 10_000.0)
    ?(profile = false) ?telemetry (sys : System.t) spec ~concurrency ~target =
  let engine = sys.System.engine in
  let metrics = Metrics.create () in
  Control.set_telemetry sys.System.control telemetry;
  (* Occupancy integrals for the flight recorder, without sampling
     events: at each transaction completion (an existing event) the
     current gauge readings are integrated backward over the span since
     the previous completion. Gauge state is shared across slots, so
     this stays off in windowed conservative mode, where slots run
     concurrently on different domains. *)
  let occ_state =
    match telemetry with
    | Some tel when Option.is_none (Engine.current_lookahead engine) ->
        Some (tel, sys.System.util_sources (), ref (Engine.now engine))
    | _ -> None
  in
  let integrate_occ () =
    match occ_state with
    | None -> ()
    | Some (tel, sources, last) ->
        let now = Engine.now engine in
        if Float.compare now !last > 0 then begin
          List.iter
            (fun (resource, poll) ->
              Xenic_telemetry.Telemetry.add_occupancy tel
                ~stack:sys.System.name ~node:(-1) ~resource ~from:!last
                ~until:now ~value:(poll ()))
            sources;
          last := now
        end
  in
  (* Profiling needs transaction spans for critical-path extraction; if
     the caller did not attach a trace, run an internal one. *)
  let trace =
    match (trace, profile) with
    | None, true -> Some (Trace.create engine)
    | _ -> trace
  in
  Control.set_trace sys.System.control trace;
  let prof_resources = if profile then sys.System.resources () else [] in
  let prof_baseline = Xenic_profile.Profile.baseline prof_resources in
  let prof_start = Engine.now engine in
  if profile then begin
    Engine.set_attrib_enabled engine true;
    Engine.reset_attrib engine
  end;
  let stop_sampler =
    match trace with
    | None -> fun () -> ()
    | Some tr ->
        Trace.sampler tr ~period_ns:sample_period_ns ~pid:0
          ~sources:(sys.System.util_sources ())
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
      window_committed = 0;
      last_commit = 0.0;
      warmup;
      target;
    }
  in
  let root = Rng.create ~seed in
  let nodes = sys.System.cfg.Xenic_cluster.Config.nodes in
  let coordinators =
    match coordinators with
    | Some cs -> cs
    | None -> List.init nodes (fun n -> n)
  in
  (* Once every slot has exited, stop background services (membership
     lease loops) so the engine can drain and [Engine.run] returns. *)
  let active_slots = ref (concurrency * List.length coordinators) in
  let slot_done () =
    decr active_slots;
    if !active_slots = 0 then begin
      stop_sampler ();
      Control.stop_background sys.System.control
    end
  in
  (* Spawn under the engine's ambient attribution state: each slot's
     first segment runs right here, before [Engine.run], and its
     context writes and resource accounting must hit the same state the
     run itself installs. *)
  Engine.with_attrib engine @@ fun () ->
  List.iter (fun node ->
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
              st.committed < st.target
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
              let latency = Engine.now engine -. t0 in
              integrate_occ ();
              (match outcome with
              | Types.Committed ->
                  st.committed <- st.committed + 1;
                  st.last_commit <- Engine.now engine;
                  if st.committed = st.warmup then
                    st.window_started <- Engine.now engine
                  else if st.committed > st.warmup then begin
                    st.window_committed <- st.window_committed + 1;
                    Metrics.record_class metrics ~cls ~latency_ns:latency
                      Types.Committed
                  end
              | Types.Aborted ->
                  (* With zero warmup the whole run is the measurement
                     window, including aborts that land before the first
                     commit — [committed > warmup] alone is 0 > 0 there
                     and would silently drop exactly the early-conflict
                     aborts an overload run front-loads. *)
                  if st.warmup = 0 || st.committed > st.warmup then
                    Metrics.record_class metrics ~cls ~latency_ns:latency
                      Types.Aborted;
                  Process.sleep engine abort_backoff_ns);
              loop ()
            end
          in
          loop ();
          slot_done ())
    done) coordinators;
  ignore (Engine.run engine);
  (match telemetry with
  | None -> ()
  | Some tel ->
      integrate_occ ();
      Xenic_telemetry.Telemetry.seal tel;
      Control.set_telemetry sys.System.control None);
  System.drain sys ~who:(Printf.sprintf "Driver.run (%s)" spec.name);
  let prof =
    if not profile then None
    else begin
      (* Collect after quiesce so every grant is closed and every queue
         drained — the busy/service and Little's-law cross-checks hold. *)
      let p =
        Xenic_profile.Profile.collect ~stack:sys.System.name
          ~resources:prof_resources ~baseline:prof_baseline ?trace
          ~elapsed_ns:(Engine.now engine -. prof_start)
          ()
      in
      Engine.set_attrib_enabled engine false;
      Engine.reset_attrib engine;
      Some p
    end
  in
  let duration = st.last_commit -. st.window_started in
  if st.window_committed = 0 then
    (* Empty measurement window (warmup >= target, or no commit landed
       after warmup): report an explicit zero-commit result instead of
       inventing a window length. *)
    {
      tput_per_server = 0.0;
      median_latency_us = Metrics.median_latency metrics /. 1_000.0;
      p99_latency_us = Metrics.p99_latency metrics /. 1_000.0;
      abort_rate = Metrics.abort_rate metrics;
      committed = Metrics.committed metrics;
      aborted = Metrics.aborted metrics;
      duration_ns = 0.0;
      metrics;
      profile = prof;
    }
  else if Float.compare duration 0.0 <= 0 then
    invalid_arg
      (Printf.sprintf
         "Driver.run (%s): %d commits in a non-positive measurement \
          window (%.1f ns)"
         spec.name st.window_committed duration)
  else
    {
      tput_per_server =
        float_of_int st.window_committed /. (duration /. 1e9)
        /. float_of_int (List.length coordinators);
      median_latency_us = Metrics.median_latency metrics /. 1_000.0;
      p99_latency_us = Metrics.p99_latency metrics /. 1_000.0;
      abort_rate = Metrics.abort_rate metrics;
      committed = Metrics.committed metrics;
      aborted = Metrics.aborted metrics;
      duration_ns = duration;
      metrics;
      profile = prof;
    }

let class_committed result ~cls = Metrics.committed_class result.metrics ~cls
