(* Shared plumbing for the experiment harness. *)

open Xenic_proto

let quick =
  ref
    (match Sys.getenv_opt "XENIC_QUICK" with
    | Some ("0" | "false") | None -> false
    | Some _ -> true)

let scale n = if !quick then max 1 (n / 4) else n

(* Machine-readable results. Experiments record scalar metrics as they
   print them; the harness dumps the accumulated set to BENCH_<id>.json
   after each experiment. Values are pre-encoded JSON tokens. *)
let json_fields : (string * string) list ref = ref []

let record_json key v =
  let key =
    if not (List.mem_assoc key !json_fields) then key
    else
      let rec fresh i =
        let k = Printf.sprintf "%s_%d" key i in
        if List.mem_assoc k !json_fields then fresh (i + 1) else k
      in
      fresh 2
  in
  json_fields := (key, v) :: !json_fields

let json_num key v =
  record_json key
    (if Float.is_finite v then Printf.sprintf "%.6g" v else "null")

let json_int key v = record_json key (string_of_int v)

let json_reset () = json_fields := []

let json_write ~id ~desc =
  let oc = open_out (Printf.sprintf "BENCH_%s.json" id) in
  let metrics =
    match !json_fields with
    | [] -> "{}"
    | fields ->
        Printf.sprintf "{\n%s\n  }"
          (String.concat ",\n"
             (List.rev_map
                (fun (k, v) -> Printf.sprintf "    %S: %s" k v)
                fields))
  in
  Printf.fprintf oc
    "{\n  \"experiment\": %S,\n  \"description\": %S,\n  \"metrics\": %s\n}\n"
    id desc metrics;
  close_out oc

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  %s\n" s) fmt

(* Scenario corpus files live under test/scenarios/. The bench binary
   usually runs from the workspace root (dune exec), but walk up a few
   levels so invocations from _build subdirectories resolve too. *)
let corpus_path name =
  let rel = Filename.concat "test/scenarios" name in
  let rec search dir depth =
    let candidate = Filename.concat dir rel in
    if Sys.file_exists candidate then candidate
    else if depth = 0 then rel
    else search (Filename.concat dir Filename.parent_dir_name) (depth - 1)
  in
  search Filename.current_dir_name 4

let load_scenario name =
  match Xenic_scenario.Scenario.load_file (corpus_path name) with
  | Ok scn -> scn
  | Error m -> failwith (Printf.sprintf "scenario corpus %s: %s" name m)

let hw = Xenic_params.Hw.testbed

(* The paper's testbed: 6 servers, 3-way replication. *)
let cluster_nodes = 6

let replication = 3

(* A stack's name in the experiment tables and BENCH_*.json keys. *)
let label = function
  | System.Xenic -> "Xenic"
  | Drtmh -> "DrTM+H"
  | Drtmh_nc -> "DrTM+H NC"
  | Fasst -> "FaSST"
  | Drtmr -> "DrTM+R"
  | Farm -> "FaRM*"

(* Every stack, labelled, as a thunk building it sized for one workload
   on the testbed cluster (or [nodes] x [replication]). *)
let systems ?(nodes = cluster_nodes) ?(replication = replication) ?xenic
    ?domains ?partitions ~store_cfg ~buckets () =
  List.map
    (fun stack ->
      ( label stack,
        fun () ->
          System.create ?domains ?xenic ?partitions ~nodes ~replication
            ~store_cfg ~buckets stack ))
    System.stacks

(* A latency/throughput sweep over closed-loop concurrency. *)
type point = {
  concurrency : int;
  tput : float;  (* txn/s per server *)
  median_us : float;
  p99_us : float;
  abort_rate : float;
  sys_metrics : Metrics.t;
      (* The system's own metrics (phase histograms, abort-reason
         taxonomy) — distinct from the driver's measurement-window
         metrics. *)
}

let sweep ?(concurrencies = [ 1; 2; 4; 8; 16; 32 ]) ~target ~load ~spec mk_sys =
  List.map
    (fun concurrency ->
      let sys = mk_sys () in
      load sys;
      let result =
        Xenic_workload.Driver.run sys (spec sys) ~concurrency ~target
      in
      {
        concurrency;
        tput = result.Xenic_workload.Driver.tput_per_server;
        median_us = result.Xenic_workload.Driver.median_latency_us;
        p99_us = result.Xenic_workload.Driver.p99_latency_us;
        abort_rate = result.Xenic_workload.Driver.abort_rate;
        sys_metrics = sys.System.metrics ();
      })
    concurrencies

let peak points = List.fold_left (fun acc p -> max acc p.tput) 0.0 points

let min_median points =
  List.fold_left (fun acc p -> min acc p.median_us) infinity points

let print_sweep ~title series =
  List.iter
    (fun (name, points) ->
      json_num (Printf.sprintf "%s / %s peak tput" title name) (peak points))
    series;
  let t =
    Xenic_stats.Table.create ~title
      ~columns:
        ("system"
        :: List.concat_map
             (fun p -> [ Printf.sprintf "c=%d tput" p.concurrency; "med us" ])
             (snd (List.hd series)))
  in
  List.iter
    (fun (name, points) ->
      Xenic_stats.Table.add_row t
        (name
        :: List.concat_map
             (fun p ->
               [
                 Xenic_stats.Table.cellf ~decimals:0 p.tput;
                 Xenic_stats.Table.cellf ~decimals:1 p.median_us;
               ])
             points))
    series;
  Xenic_stats.Table.print t

(* Merge the protocol-side metrics of every sweep point into one view
   per system, so phase/abort tables cover the whole sweep. *)
let merged_sys_metrics points =
  let m = Metrics.create () in
  List.iter (fun p -> Metrics.merge ~into:m p.sys_metrics) points;
  m

(* Per-phase latency breakdown and abort-reason tables over
   [(system name, protocol metrics)] pairs. *)
let print_phase_breakdown ~title series =
  let t =
    Xenic_stats.Table.create
      ~title:(title ^ " -- per-phase latency breakdown")
      ~columns:[ "system"; "phase"; "count"; "mean us"; "med us"; "p99 us" ]
  in
  List.iter
    (fun (name, m) ->
      List.iter
        (fun (phase, h) ->
          json_num
            (Printf.sprintf "%s / %s phase %s mean us" title name phase)
            (Xenic_stats.Histogram.mean h /. 1_000.0);
          Xenic_stats.Table.add_row t
            [
              name;
              phase;
              string_of_int (Xenic_stats.Histogram.count h);
              Xenic_stats.Table.cellf ~decimals:2
                (Xenic_stats.Histogram.mean h /. 1_000.0);
              Xenic_stats.Table.cellf ~decimals:2
                (Xenic_stats.Histogram.median h /. 1_000.0);
              Xenic_stats.Table.cellf ~decimals:2
                (Xenic_stats.Histogram.p99 h /. 1_000.0);
            ])
        (Metrics.phase_stats m))
    series;
  Xenic_stats.Table.print t

let print_abort_reasons ~title series =
  let t =
    Xenic_stats.Table.create
      ~title:(title ^ " -- aborts by reason")
      ~columns:
        ("system"
        :: List.map Metrics.abort_reason_name Metrics.all_abort_reasons)
  in
  List.iter
    (fun (name, m) ->
      List.iter
        (fun (reason, n) ->
          json_int (Printf.sprintf "%s / %s aborts %s" title name reason) n)
        (Metrics.abort_reason_counts m);
      Xenic_stats.Table.add_row t
        (name
        :: List.map
             (fun (_, n) -> string_of_int n)
             (Metrics.abort_reason_counts m)))
    series;
  Xenic_stats.Table.print t

let print_summary ~title ~metric series =
  List.iter
    (fun (name, v) ->
      json_num (Printf.sprintf "%s / %s (%s)" title name metric) v)
    series;
  let t = Xenic_stats.Table.create ~title ~columns:[ "system"; metric ] in
  List.iter
    (fun (name, v) ->
      Xenic_stats.Table.add_row t [ name; Xenic_stats.Table.cellf ~decimals:1 v ])
    series;
  Xenic_stats.Table.print t
