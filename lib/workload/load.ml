open Xenic_sim
open Xenic_proto
module Telemetry = Xenic_telemetry.Telemetry
module Profile = Xenic_profile.Profile

type t = {
  sys : System.t;
  telemetry : Telemetry.t option;
  stop_sampler : unit -> unit;
  collect_profile : (unit -> Profile.t) option;
  (* One account per coordinator, written only by events on that
     coordinator's node. *)
  accounts : Metrics.t array;
}

let attach ?trace ?(sample_period_ns = 10_000.0) ?(profile = false)
    ?telemetry ?cutoff (sys : System.t) ~coordinators =
  let engine = sys.System.engine in
  Control.set_telemetry sys.System.control telemetry;
  (match (telemetry, cutoff) with
  | Some tel, Some c -> Telemetry.set_cutoff tel c
  | _ -> ());
  (* Profiling needs transaction spans for critical-path extraction; if
     the caller did not attach a trace, run an internal one. *)
  let trace =
    if profile && Option.is_none trace then Some (Trace.create engine)
    else trace
  in
  Control.set_trace sys.System.control trace;
  let collect_profile =
    if not profile then None
    else begin
      let resources = sys.System.resources () in
      let baseline = Profile.baseline resources in
      let start = Engine.now engine in
      Engine.set_attrib_enabled engine true;
      Engine.reset_attrib engine;
      Some
        (fun () ->
          let p =
            Profile.collect ~stack:sys.System.name ~resources ~baseline ?trace
              ~elapsed_ns:(Engine.now engine -. start) ()
          in
          Engine.set_attrib_enabled engine false;
          Engine.reset_attrib engine;
          p)
    end
  in
  let stop_sampler =
    match trace with
    | None -> ignore
    | Some tr ->
        Trace.sampler tr ~period_ns:sample_period_ns ~pid:0
          ~sources:(sys.System.util_sources ())
  in
  {
    sys;
    telemetry;
    stop_sampler;
    collect_profile;
    accounts = Array.init coordinators (fun _ -> Metrics.create ());
  }

let record t i ~cls ~latency_ns outcome =
  Metrics.record_class t.accounts.(i) ~cls ~latency_ns outcome

type gauge = {
  load : t;
  tel : Telemetry.t;
  node : int;
  sources : (string * (unit -> float)) list;
  mutable last : float;
}

let gauge load ~node sources =
  Option.map
    (fun tel ->
      let last = Engine.now load.sys.System.engine in
      { load; tel; node; sources = sources (); last })
    load.telemetry

let integrate = function
  | None -> ()
  | Some g ->
      let sys = g.load.sys in
      let now = Engine.now sys.System.engine in
      if Float.compare now g.last > 0 then begin
        List.iter
          (fun (resource, poll) ->
            Telemetry.add_occupancy g.tel ~stack:sys.System.name ~node:g.node
              ~resource ~from:g.last ~until:now ~value:(poll ()))
          g.sources;
        g.last <- now
      end

let stop t =
  t.stop_sampler ();
  Control.stop_background t.sys.System.control

let finish t ~who =
  stop t;
  (match t.telemetry with
  | None -> ()
  | Some tel ->
      Telemetry.seal tel;
      Control.set_telemetry t.sys.System.control None);
  System.drain t.sys ~who;
  (* Collect the profile after quiesce, so every grant is closed and
     every queue drained — the busy/service and Little's-law
     cross-checks hold. *)
  let profile = Option.map (fun collect -> collect ()) t.collect_profile in
  let metrics = Metrics.create () in
  Array.iter (fun a -> Metrics.merge ~into:metrics a) t.accounts;
  (metrics, profile)
