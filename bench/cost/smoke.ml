(* Smoke test for the cost benchmark, at tiny sizes:
     smoke.exe COST_EXE BENCHMARK_JSON
   - every workload's result line has exactly the keys the benchmark
     contract names, and every metric BENCHMARK.json declares, with its
     unit, for both the untraced and the traced run;
   - every line and BENCH_cost.json are well-formed JSON;
   - two runs with the same seed give identical simulated metrics and
     sim_digest, and another seed changes sim_digest. *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL: %s\n%!" s)
    fmt

let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "%s exited nonzero" (String.concat " " args));
  out

let parse what s =
  match Json.parse s with
  | v -> v
  | exception Json.Parse_error e ->
      fail "%s is not JSON: %s" what e;
      Json.Null

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let str = function Json.Str s -> Some s | _ -> None

let keys = function Json.Obj l -> List.map fst l | _ -> []

(* (name, unit) pairs of one BENCHMARK.json metric list. *)
let declared spec field =
  match Json.member field spec with
  | Some (Json.Arr l) ->
      List.filter_map
        (fun m ->
          match (Option.bind (Json.member "name" m) str, Option.bind (Json.member "unit" m) str) with
          | Some n, Some u -> Some (n, u)
          | _ -> None)
        l
  | _ -> []

let digest_of lines =
  List.find_map
    (fun l ->
      match String.split_on_char ' ' (String.trim l) with
      | [ "sim_digest"; d ] -> Some d
      | _ -> None)
    lines

(* One workload run; returns (metrics object, sim_digest). *)
let run_workload exe ~want ~workload ~seed ~trace =
  let what = Printf.sprintf "%s seed %d trace %d" workload seed trace in
  let out =
    run exe
      [
        "--tiny"; "--seconds"; "0"; "--workload"; workload; "--seed";
        string_of_int seed; "--trace"; string_of_int trace;
      ]
  in
  let last = match List.rev out with l :: _ -> l | [] -> "" in
  let v = parse (what ^ " last line") last in
  if keys v <> [ "correct"; "attempted"; "failed"; "metrics" ] then
    fail "%s: result keys are %s" what (String.concat "," (keys v));
  if Json.member "correct" v <> Some (Json.Bool true) then fail "%s: not correct" what;
  (match (Json.member "attempted" v, Json.member "failed" v) with
  | Some (Json.Int a), Some (Json.Int f) when a >= 1 && f >= 0 && f <= a -> ()
  | _ -> fail "%s: bad attempted/failed" what);
  let metrics = Option.value ~default:Json.Null (Json.member "metrics" v) in
  if keys metrics <> List.map fst want then
    fail "%s: metrics are %s" what (String.concat "," (keys metrics));
  List.iter
    (fun (n, u) ->
      match Json.member n metrics with
      | Some m -> (
          if Option.bind (Json.member "unit" m) str <> Some u then
            fail "%s: %s unit is not %s" what n u;
          match Option.bind (Json.member "value" m) Json.to_float with
          | Some x when Float.is_finite x -> ()
          | _ -> fail "%s: %s has no numeric value" what n)
      | None -> ())
    want;
  (metrics, digest_of out)

(* Simulated end-to-end metrics: deterministic for a seed. *)
let simulated = [ "tput_per_server"; "p50_us"; "p99_us"; "p999_us"; "failed_frac" ]

let () =
  let exe =
    let e = Sys.argv.(1) in
    if Filename.is_implicit e then Filename.concat Filename.current_dir_name e else e
  in
  let spec = parse "BENCHMARK.json" (read_file Sys.argv.(2)) in
  let end_to_end = declared spec "end_to_end" and per_layer = declared spec "per_layer" in
  let workloads =
    match Json.member "workloads" spec with
    | Some (Json.Arr l) -> List.filter_map (fun w -> Option.bind (Json.member "name" w) str) l
    | _ -> []
  in
  if workloads = [] || end_to_end = [] || per_layer = [] then
    fail "BENCHMARK.json declares no workloads or metrics";
  List.iter
    (fun workload ->
      let a, da = run_workload exe ~want:end_to_end ~workload ~seed:7 ~trace:0 in
      let b, db = run_workload exe ~want:end_to_end ~workload ~seed:7 ~trace:0 in
      let _, dc = run_workload exe ~want:end_to_end ~workload ~seed:8 ~trace:0 in
      let _, dt = run_workload exe ~want:per_layer ~workload ~seed:7 ~trace:1 in
      if da = None then fail "%s: no sim_digest line" workload;
      if da <> db then fail "%s: same seed, different sim_digest" workload;
      if da <> dt then fail "%s: traced run changed sim_digest" workload;
      if da = dc then fail "%s: seeds 7 and 8 give the same sim_digest" workload;
      List.iter
        (fun n ->
          if Json.member n a <> Json.member n b then
            fail "%s: same seed, different %s" workload n)
        simulated)
    workloads;
  (* The merged run: BENCH_cost.json must parse and cover every workload. *)
  ignore (run exe [ "--tiny"; "--seconds"; "0"; "--seed"; "7" ]);
  let bench = parse "BENCH_cost.json" (read_file "BENCH_cost.json") in
  let digests = Option.value ~default:Json.Null (Json.member "sim_digest" bench) in
  if keys digests <> workloads then
    fail "BENCH_cost.json digests cover %s" (String.concat "," (keys digests));
  if !failures > 0 then exit 1;
  print_endline "cost smoke: ok"
