(* bench/cost: host cost and modeled performance of the simulator on
   four protocol workloads. See README.md in this directory.

     dune exec bench/cost/cost.exe -- [--seed N] [--seconds S] [--trace [0|1]]
     dune exec bench/cost/cost.exe -- --workload NAME [...]

   Without [--workload] the command re-executes itself once per
   workload, so every workload runs in a fresh process, and merges the
   results into BENCH_cost.json. With [--workload] it runs that one
   workload and prints, as its last line, the JSON result object. *)

module W = Workloads

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (* test sizes, for the smoke test *)
}

let usage () =
  prerr_endline
    "usage: cost.exe [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
     [--tiny]";
  prerr_endline ("workloads: " ^ String.concat ", " W.names);
  exit 2

let parse_args argv =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest when List.mem w W.names ->
        go { o with workload = Some w } rest
    | "--seed" :: n :: rest when Option.is_some (int_of_string_opt n) ->
        go { o with seed = int_of_string n } rest
    | "--seconds" :: s :: rest when Option.is_some (float_of_string_opt s) ->
        go { o with seconds = float_of_string s } rest
    | "--trace" :: "0" :: rest -> go { o with trace = false } rest
    | "--trace" :: "1" :: rest -> go { o with trace = true } rest
    | "--trace" :: rest -> go { o with trace = true } rest
    | "--tiny" :: rest -> go { o with tiny = true } rest
    | arg :: _ ->
        prerr_endline ("cost.exe: bad argument " ^ arg);
        usage ()
  in
  go
    { workload = None; seed = 7; seconds = 10.0; trace = false; tiny = false }
    (List.tl (Array.to_list argv))

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if Float.compare b 0.0 > 0 then a /. b else 0.0

(* Commits per host second over the full chunks of identical runs,
   each chunk at its fastest repetition. Load from other tenants of a
   shared host only ever slows a chunk down, and a chunk is the same
   simulated work in every repetition, GC included. *)
let chunk_rate (hs : W.host list) =
  match hs with
  | [] -> 0.0
  | h :: _ ->
      let n =
        List.fold_left (fun n h -> min n (Spans.Vec.length h.W.chunk_ns)) max_int hs
      in
      let ns = ref 0 in
      for i = 0 to n - 1 do
        ns := !ns + List.fold_left (fun m h -> min m (Spans.Vec.get h.W.chunk_ns i)) max_int hs
      done;
      ratio (float_of_int (n * h.W.chunk) *. 1e9) (float_of_int !ns)

(* -- one workload, in this process ------------------------------------ *)

(* Per-transaction spans written to the trace file, per kind. *)
let per_txn_limit = 20_000

(* Host metrics that only the traced run measures, marked (T). *)
type traced = {
  run_s : float;
  self_frac : float;
  gc_minor_frac : float;
  gc_major_frac : float;
  gen_ns_per_txn : float;
  load_gen_s : float;
  load_ns_per_key : float;
  seal_s : float;
  create_s : float;
  check_s : float;
}

let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l

(* Close a traced run's recorder: nest its spans, check that self
   times partition every sim.run span, derive the (T) metrics. *)
let finish_traced problems (tr : W.tracer) =
  let sp = tr.W.sp in
  let straddles = Spans.finish sp ~per_txn_limit in
  if straddles > 0 then
    problems := Printf.sprintf "%d host spans straddle their parent" straddles :: !problems;
  let self = Spans.self_times sp in
  let self_of (s : Spans.span) =
    Option.value ~default:0.0 (Hashtbl.find_opt self s.Spans.id)
  in
  let runs = Spans.named sp "sim.run" in
  let run_total = sum Spans.dur runs in
  let gc_minor = ref 0.0 and gc_major = ref 0.0 in
  List.iter
    (fun run ->
      let desc = Spans.descendants sp run in
      (* Nested, non-overlapping children leave every self time >= 0,
         and then the self times of a subtree sum to its root. *)
      if List.exists (fun s -> Float.compare (self_of s) 0.0 < 0) (run :: desc) then
        problems :=
          Printf.sprintf "self times do not partition sim.run span %d" run.Spans.id
          :: !problems;
      List.iter
        (fun (s : Spans.span) ->
          match s.Spans.name with
          | "runtime.gc_minor" -> gc_minor := !gc_minor +. Spans.dur s
          | "runtime.gc_major" -> gc_major := !gc_major +. Spans.dur s
          | _ -> ())
        desc)
    runs;
  let span_sum name = sum Spans.dur (Spans.named sp name) in
  let gens = Spans.named sp "workload.generate" in
  let load_s = span_sum "store.load" in
  {
    run_s = run_total /. 1e9;
    self_frac = ratio (sum self_of runs) run_total;
    gc_minor_frac = ratio !gc_minor run_total;
    gc_major_frac = ratio !gc_major run_total;
    gen_ns_per_txn = ratio (sum Spans.dur gens) (float_of_int (List.length gens));
    load_gen_s =
      (span_sum "workload.load_gen" -. load_s -. span_sum "store.seal") /. 1e9;
    load_ns_per_key = ratio load_s (float_of_int tr.W.load_calls);
    seal_s = span_sum "store.seal" /. 1e9;
    create_s = span_sum "proto.create" /. 1e9;
    check_s = span_sum "oracle.check" /. 1e9;
  }

(* Simulated results of a run, as (name, unit, value); the digest of
   these is the run's sim_digest. *)
let simulated (w : W.t) (r : W.run) =
  let e2e =
    [
      ("tput_per_server", "txn/s", r.W.tput_per_server);
      ("p50_us", "us", r.W.lat.W.p50_us);
      ("p99_us", "us", r.W.lat.W.p99_us);
      ("p999_us", "us", r.W.lat.W.p999_us);
      ("failed_frac", "ratio", ratio (float_of_int r.W.failed) (float_of_int r.W.attempted));
    ]
  in
  let slo =
    match w.W.kind with
    | W.Open _ -> [ ("slo_rate_tps", "txn/s", W.slo_rate_tps r.W.points) ]
    | W.Closed _ -> []
  in
  let counts =
    [
      ("attempted", "count", float_of_int r.W.attempted);
      ("failed", "count", float_of_int r.W.failed);
      ("latency_samples", "count", float_of_int r.W.lat.W.samples);
    ]
  in
  let points =
    List.concat_map
      (fun (p : W.point) ->
        let k s = Printf.sprintf "at_%.0f.%s" p.W.rate s in
        [
          (k "goodput_tps", "txn/s", p.W.goodput_tps);
          (k "p50_us", "us", p.W.lat.W.p50_us);
          (k "p99_us", "us", p.W.lat.W.p99_us);
          (k "p999_us", "us", p.W.lat.W.p999_us);
          (k "failed_frac", "ratio", W.point_failed_frac p);
        ])
      r.W.points
  in
  e2e @ slo @ counts @ points @ Layers.metrics r.W.layers

let digest metrics =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map (fun (n, _, v) -> Printf.sprintf "%s=%h" n v) metrics)))

let mib words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

let print_table title rows =
  Printf.printf "  %-32s %22s  %s\n" title "value" "unit";
  List.iter
    (fun (n, u, v) -> Printf.printf "  %-32s %22s  %s\n" n (Json.number v) u)
    rows

let run_one o (w : W.t) =
  let problems = ref [] in
  Printf.printf "== %s: %s (seed %d, %.0f s%s) ==\n%!" w.W.name w.W.describe
    o.seed o.seconds
    (if o.trace then ", traced" else "");
  let seed = Int64.of_int o.seed in
  let report label (r : W.run) =
    let h = r.W.host in
    Printf.printf "  %-8s setup %s s  run %.3f s  %d commits  %.0f txn/host-s\n%!"
      label
      (String.concat "/" (List.map (Printf.sprintf "%.3f") (List.rev h.W.setup_s)))
      h.W.run_s h.W.committed (chunk_rate [ h ]);
    List.iter (fun p -> problems := Printf.sprintf "%s run: %s" label p :: !problems) r.W.problems
  in
  (* The simulation must come out the same every time the seed is run,
     and observers must not perturb it. *)
  let sim = ref [] in
  let same_sim label (r : W.run) =
    let s = simulated w r in
    if !sim = [] then sim := s
    else
      match
        List.find_opt
          (fun ((_, _, a), (_, _, b)) -> not (Float.equal a b))
          (List.combine !sim s)
      with
      | Some ((n, _, a), (_, _, b)) ->
          problems :=
            Printf.sprintf "%s run: simulated %s = %s, first run had %s" label n
              (Json.number b) (Json.number a)
            :: !problems
      | None -> ()
  in
  let untraced label ~setups =
    let r = W.run ~seed ~tracer:None ~setups ~tiny:o.tiny w in
    report label r;
    same_sim label r;
    r
  in
  (* Untraced, the timed work runs twice on fresh systems with the same
     inputs, and the closed loop builds one extra system, so setup_s is
     a median over at least three builds. A traced run is compared with
     one untraced run. *)
  let u = untraced "untraced" ~setups:(if o.trace then 1 else 2) in
  let reps = if o.trace then [ u ] else [ u; untraced "repeat" ~setups:1 ] in
  let traced =
    if not o.trace then None
    else begin
      let tr =
        {
          W.sp = Spans.create ~run:(Printf.sprintf "%s/seed%d" w.W.name o.seed);
          load_ns = 0;
          load_calls = 0;
        }
      in
      Spans.Gc_events.resume ();
      let t = W.run ~seed ~tracer:(Some tr) ~setups:1 ~tiny:o.tiny w in
      Spans.Gc_events.pause ();
      report "traced" t;
      same_sim "traced" t;
      let lost = !Spans.Gc_events.lost in
      if lost > 0 then
        problems := Printf.sprintf "runtime events lost: %d" lost :: !problems;
      let m = finish_traced problems tr in
      let oc = open_out (Printf.sprintf "TRACE_cost_%s.json" w.W.name) in
      output_string oc
        (Spans.to_chrome tr.W.sp ~per_txn_limit
           ~other:
             (Json.Obj
                [
                  ("workload", Json.Str w.W.name);
                  ("seed", Json.Int o.seed);
                  ("host_clock", Json.Str "CLOCK_MONOTONIC, us since process start");
                  ("sim_clock", Json.Str "simulated us");
                ]));
      close_out oc;
      Some (t, m)
    end
  in
  let sim = !sim in
  let sim_digest = digest sim in
  let h = u.W.host in
  let per_txn v = ratio v (float_of_int h.W.committed) in
  let per_event v = ratio v (float_of_int h.W.events) in
  let sim_value name =
    match List.find_opt (fun (n, _, _) -> String.equal n name) sim with
    | Some (_, _, v) -> v
    | None -> 0.0
  in
  let end_to_end =
    [
      (* The open loop builds one system per rate: its setup is the
         grid's, the median point's times the number of points. *)
      ( "setup_s",
        "s",
        median (List.concat_map (fun (r : W.run) -> r.W.host.W.setup_s) reps)
        *. float_of_int (max 1 (List.length u.W.points)) );
      ("txn_per_host_s", "txn/s", chunk_rate (List.map (fun (r : W.run) -> r.W.host) reps));
      ("alloc_words_per_txn", "words", per_txn h.W.minor_words);
      ("peak_heap_mb", "MiB", mib (Gc.quick_stat ()).Gc.top_heap_words);
      ("tput_per_server", "txn/s", sim_value "tput_per_server");
      ("p50_us", "us", sim_value "p50_us");
      ("p99_us", "us", sim_value "p99_us");
      ("p999_us", "us", sim_value "p999_us");
      ("failed_frac", "ratio", sim_value "failed_frac");
    ]
  in
  let tm f = match traced with Some (_, m) -> f m | None -> 0.0 in
  let per_layer =
    [
      ("sim.events_per_txn", "events/txn", per_txn (float_of_int h.W.events));
      ("sim.host_ns_per_event", "ns", per_event (h.W.run_s *. 1e9));
      ("sim.alloc_words_per_event", "words", per_event h.W.minor_words);
      ("sim.self_frac", "ratio", tm (fun t -> t.self_frac));
      ("runtime.gc_minor_frac", "ratio", tm (fun t -> t.gc_minor_frac));
      ("runtime.gc_major_frac", "ratio", tm (fun t -> t.gc_major_frac));
      ("runtime.promoted_words_per_txn", "words", per_txn h.W.promoted_words);
      ("runtime.minor_collections", "count", float_of_int h.W.minor_gcs);
      ("runtime.major_collections", "count", float_of_int h.W.major_gcs);
      ("workload.gen_ns_per_txn", "ns", tm (fun t -> t.gen_ns_per_txn));
      ("workload.load_gen_s", "s", tm (fun t -> t.load_gen_s));
      ("store.load_ns_per_key", "ns", tm (fun t -> t.load_ns_per_key));
      ("store.seal_s", "s", tm (fun t -> t.seal_s));
      ("proto.create_s", "s", tm (fun t -> t.create_s));
    ]
    @ Layers.metrics u.W.layers
    @ [
        ("obs.trace_overhead_frac", "ratio", tm (fun t -> ratio t.run_s h.W.run_s -. 1.0));
        ("oracle.check_s", "s", tm (fun t -> t.check_s));
      ]
  in
  let shown = if o.trace then per_layer else end_to_end in
  print_table (if o.trace then "per-layer" else "end-to-end") shown;
  let lat = u.W.lat in
  Printf.printf "  latency samples %d, %d beyond p99.9\n" lat.W.samples lat.W.beyond_p999;
  (match u.W.points with
  | [] -> ()
  | points ->
      Printf.printf "  %12s %12s %10s %10s %10s %9s\n" "offered/s" "goodput/s"
        "p50_us" "p99_us" "p999_us" "failed";
      List.iter
        (fun (p : W.point) ->
          Printf.printf "  %12.0f %12.0f %10.2f %10.2f %10.2f %8.2f%%\n" p.W.rate
            p.W.goodput_tps p.W.lat.W.p50_us p.W.lat.W.p99_us p.W.lat.W.p999_us
            (100.0 *. W.point_failed_frac p))
        points;
      Printf.printf "  slo_rate_tps %s txn/s (p99 <= %.0f us, failed <= %.0f%%)\n"
        (Json.number (W.slo_rate_tps points))
        W.slo_p99_us (100.0 *. W.slo_failed_frac));
  Printf.printf "  unmapped resources: %s\n"
    (match Layers.unmapped u.W.layers with [] -> "none" | l -> String.concat ", " l);
  Printf.printf "  sim_digest %s\n" sim_digest;
  let problems = List.rev !problems in
  List.iter (fun p -> Printf.printf "  CHECK FAILED: %s\n" p) problems;
  if problems = [] then
    Printf.printf "  checks: ok%s\n"
      (if o.trace then
         " (traced run bit-identical, oracle serializable, spans nest, 0 \
          events lost)"
       else " (repeat run bit-identical)");
  let runs = reps @ Option.fold ~none:[] ~some:(fun (t, _) -> [ t ]) traced in
  let attempted = List.fold_left (fun a (r : W.run) -> a + r.W.attempted) 0 runs in
  let failed = List.fold_left (fun a (r : W.run) -> a + r.W.failed) 0 runs in
  let metrics l =
    Json.Obj
      (List.map
         (fun (n, u, v) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
         l)
  in
  let correct = problems = [] in
  (* Everything, for the merging parent: the reported metrics plus the
     other simulated results (grid points, SLO rate, counts). *)
  print_endline
    ("result "
    ^ Json.to_string
        (Json.Obj
           [
             ("workload", Json.Str w.W.name);
             ("correct", Json.Bool correct);
             ("attempted", Json.Int attempted);
             ("failed", Json.Int failed);
             ("sim_digest", Json.Str sim_digest);
             ( "metrics",
               metrics
                 (shown
                 @ List.filter
                     (fun (n, _, _) ->
                       not (List.exists (fun (m, _, _) -> String.equal m n) shown))
                     sim) );
           ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", metrics shown);
          ]));
  if correct then 0 else 1

(* -- all workloads, one child process each ----------------------------- *)

let env_json o =
  let g = Gc.get () in
  Json.Obj
    [
      ("ocaml", Json.Str Sys.ocaml_version);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("seed", Json.Int o.seed);
      ("seconds", Json.Num o.seconds);
      ("trace", Json.Bool o.trace);
      ( "gc",
        Json.Obj
          [
            ("minor_heap_size", Json.Int g.Gc.minor_heap_size);
            ("space_overhead", Json.Int g.Gc.space_overhead);
            ("max_overhead", Json.Int g.Gc.max_overhead);
            ("stack_limit", Json.Int g.Gc.stack_limit);
            ("allocation_policy", Json.Int g.Gc.allocation_policy);
            ("window_size", Json.Int g.Gc.window_size);
            ("custom_major_ratio", Json.Int g.Gc.custom_major_ratio);
            ("custom_minor_ratio", Json.Int g.Gc.custom_minor_ratio);
            ("custom_minor_max_size", Json.Int g.Gc.custom_minor_max_size);
          ] );
    ]

let run_child o name =
  let args =
    [
      Sys.executable_name;
      "--workload";
      name;
      "--seed";
      string_of_int o.seed;
      "--seconds";
      Json.number o.seconds;
      "--trace";
      (if o.trace then "1" else "0");
    ]
    @ if o.tiny then [ "--tiny" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let result = ref None in
  let prefix = "result " in
  (try
     while true do
       let line = input_line ic in
       if String.starts_with ~prefix line then
         result :=
           Some
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix))
       else if not (String.starts_with ~prefix:"{" line) then print_endline line
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let parsed =
    match !result with
    | None -> None
    | Some s -> (
        match Json.parse s with v -> Some v | exception Json.Parse_error _ -> None)
  in
  match (status, parsed) with
  | Unix.WEXITED 0, Some v -> Ok v
  | Unix.WEXITED c, Some v -> Error (Printf.sprintf "exit %d" c, Some v)
  | _, _ -> Error ("no result", None)

let run_all o =
  let results =
    List.map
      (fun name ->
        match run_child o name with
        | Ok v -> (name, true, v)
        | Error (why, v) ->
            Printf.printf "!! %s failed: %s\n%!" name why;
            (name, false, Option.value ~default:Json.Null v))
      W.names
  in
  (* "<workload> <metric>" -> {"value", "unit"}, in run order. *)
  let merged =
    List.concat_map
      (fun (name, _, v) ->
        match Json.member "metrics" v with
        | Some (Json.Obj ms) -> List.map (fun (m, mv) -> (name ^ " " ^ m, mv)) ms
        | _ -> [])
      results
  in
  let value mv = Option.value ~default:nan (Option.bind (Json.member "value" mv) Json.to_float) in
  let unit mv = match Json.member "unit" mv with Some (Json.Str u) -> u | _ -> "" in
  let digests =
    List.filter_map
      (fun (name, _, v) -> Option.map (fun d -> (name, d)) (Json.member "sim_digest" v))
      results
  in
  (* One metric per line inside "metrics", the shape
     Xenic_profile.Bench_diff reads, so two files compare with
     `xenicctl bench diff`. *)
  let oc = open_out "BENCH_cost.json" in
  Printf.fprintf oc
    "{\n  \"experiment\": \"cost\",\n  \"env\": %s,\n  \"sim_digest\": %s,\n  \"metrics\": {\n%s\n  }\n}\n"
    (Json.to_string (env_json o))
    (Json.to_string (Json.Obj digests))
    (String.concat ",\n"
       (List.map
          (fun (k, mv) -> Printf.sprintf "    %s: %s" (Json.to_string (Json.Str k)) (Json.number (value mv)))
          merged));
  close_out oc;
  Printf.printf "\n== summary (BENCH_cost.json) ==\n";
  List.iter
    (fun (k, mv) -> Printf.printf "  %-50s %22s  %s\n" k (Json.number (value mv)) (unit mv))
    merged;
  let ok = List.for_all (fun (_, ok, _) -> ok) results in
  let total k =
    List.fold_left
      (fun a (_, _, v) -> match Json.member k v with Some (Json.Int n) -> a + n | _ -> a)
      0 results
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool ok);
            ("attempted", Json.Int (total "attempted"));
            ("failed", Json.Int (total "failed"));
            ("metrics", Json.Obj merged);
          ]));
  if ok then 0 else 1

let () =
  let o = parse_args Sys.argv in
  let code =
    match o.workload with
    | None -> run_all o
    | Some name ->
        let w =
          List.find
            (fun w -> String.equal w.W.name name)
            (W.all ~tiny:o.tiny ~seconds:o.seconds)
        in
        run_one o w
  in
  exit code
