(* Mid-run fault tolerance: crash one node at a fixed simulated instant
   while the driver is running, on an armed Xenic (request deadlines,
   the fenced commit point and a lease-based membership). A probe
   samples the cluster-wide committed count every 10us; from the
   timeline we report the steady-state throughput before the fault, the
   depth of the dip while coordinators time out and recovery promotes,
   the time until the windowed rate is back above half the pre-fault
   rate, and the post-recovery throughput (acceptance: within 2x of
   pre-fault, i.e. post/pre >= 0.5 with one of six servers gone). *)

open Xenic_sim
open Xenic_proto
open Xenic_workload
open Common

let probe_step_ns = 10_000.0

let horizon_ns = 3_000_000.0

(* The crash comes from the scenario corpus and is injected like every
   other scenario; quick mode scales every time by 1/3 (150us -> exactly
   50us, the historical hardcoded value). *)
let fault_scenario () =
  let scn = load_scenario "crash-bench.scn" in
  if !quick then Xenic_scenario.Scenario.scale_times scn (1.0 /. 3.0) else scn

let sb_params = { Smallbank.default_params with accounts_per_node = 500 }

let tpcc_params =
  {
    Tpcc.default_params with
    warehouses_per_node = 2;
    customers_per_district = 20;
    items = 200;
  }

(* Commits observed by the latest probe at or before [t]. *)
let commits_at samples t =
  List.fold_left (fun acc (st, c) -> if st <= t then c else acc) 0 samples

let one ~name ~store_cfg ~buckets ~cache_capacity ~load ~spec ~concurrency
    ~target =
  let scn = fault_scenario () in
  let fault_ns, crashed_node =
    match scn.Xenic_scenario.Scenario.events with
    | [ { at_ns; action = Crash n } ] -> (at_ns, n)
    | _ -> failwith "fault: crash-bench.scn must hold exactly one crash"
  in
  let sys =
    System.create ~strict:true ~armed:true ~nodes:cluster_nodes ~replication
      ~xenic:{ Xenic_system.default_params with cache_capacity }
      ~store_cfg ~buckets System.Xenic
  in
  let oracle = Oracle.create () in
  sys.System.set_oracle oracle;
  load sys;
  let engine = sys.System.engine in
  (* Timeline probe: the oracle's transaction count is the live
     cluster-wide commit counter once the system's oracle buffer is
     flushed into it — safe mid-run here, because a closed-loop system
     runs on one heap. Sample it every probe_step up to a horizon
     comfortably past the end of the run (flat tail samples are
     ignored below). *)
  let samples = ref [] in
  let t = ref probe_step_ns in
  while !t <= horizon_ns do
    let at = !t in
    Engine.at engine at (fun () ->
        sys.System.sync ();
        samples := (at, Oracle.txn_count oracle) :: !samples);
    t := !t +. probe_step_ns
  done;
  (* Windowed flight recorder alongside the probe: the dip/recovery
     story re-expressed on telemetry windows, with time-to-recovery
     measured in simulated time by the online detector. *)
  let tel =
    Xenic_telemetry.Telemetry.create ~window_ns:probe_step_ns engine
  in
  (* The crash is scheduled after the probes, as the last event before
     the run. *)
  Xenic_scenario.Scenario.inject scn sys ~seed:0L;
  let result =
    Driver.run sys (spec sys) ~warmup_frac:0.0 ~concurrency ~target
      ~telemetry:tel
  in
  let samples = List.rev !samples in
  (* With warmup 0 the measurement window opens at t=0, so duration_ns
     is the instant of the last commit. *)
  let t_end = result.Driver.duration_ns in
  let pre_tput = float_of_int (commits_at samples fault_ns) /. fault_ns in
  if Float.compare pre_tput 0.0 <= 0 then
    failwith (name ^ ": the probe saw no commit before the fault");
  (* Windowed rates strictly after the fault and before the run ends. *)
  let rates =
    let rec pair = function
      | (t0, c0) :: ((t1, c1) :: _ as rest) when t1 <= t_end ->
          if t0 >= fault_ns then
            (t1, float_of_int (c1 - c0) /. (t1 -. t0)) :: pair rest
          else pair rest
      | _ -> []
    in
    pair samples
  in
  let dip_rate =
    List.fold_left (fun acc (_, r) -> if r < acc then r else acc) pre_tput
      rates
  in
  let recovery_ns =
    let rec find = function
      | (t1, r) :: _ when Float.compare r (0.5 *. pre_tput) >= 0 ->
          t1 -. fault_ns
      | _ :: rest -> find rest
      | [] -> t_end -. fault_ns
    in
    find rates
  in
  (* Post-recovery window: from declaration + promotion slack to the
     last commit. *)
  let t_rec = fault_ns +. (2.0 *. Control.lease_ns) in
  let post_tput =
    if Float.compare (t_end -. t_rec) 0.0 > 0 then
      float_of_int (commits_at samples t_end - commits_at samples t_rec)
      /. (t_end -. t_rec)
    else 0.0
  in
  let ratio =
    if Float.compare pre_tput 0.0 > 0 then post_tput /. pre_tput else 0.0
  in
  (match Oracle.check oracle with
  | Oracle.Serializable -> ()
  | Oracle.Violation msg -> failwith ("fault run not serializable: " ^ msg));
  note "%s: committed=%d aborted=%d, crash of node %d at %.0fus, run end %.0fus"
    name result.Driver.committed result.Driver.aborted crashed_node
    (fault_ns /. 1e3) (t_end /. 1e3);
  note
    "%s: pre-fault %.2f txn/us, dip %.2f txn/us, recovered in %.0fus, \
     post-recovery %.2f txn/us (post/pre = %.2f, acceptance >= 0.5)"
    name (pre_tput *. 1e3) (dip_rate *. 1e3) (recovery_ns /. 1e3)
    (post_tput *. 1e3) ratio;
  json_num (name ^ " pre_fault_tput_per_us") (pre_tput *. 1e3);
  json_num (name ^ " dip_tput_per_us") (dip_rate *. 1e3);
  json_num (name ^ " post_recovery_tput_per_us") (post_tput *. 1e3);
  json_num (name ^ " recovery_us") (recovery_ns /. 1e3);
  json_num (name ^ " post_over_pre") ratio;
  json_int (name ^ " committed") result.Driver.committed;
  json_int (name ^ " aborted") result.Driver.aborted;
  (* Same question asked of the flight recorder: time from the fault
     until the last half-rate-degraded window is behind us, scanning
     only full windows inside the run (the probe events keep the engine
     alive to the horizon, so later windows are empty, and the partial
     window at the last commit would read as a fake collapse). Must be
     finite — a None here means the recorder never saw recovery the
     probe-based accounting above claims happened. *)
  let roll = Xenic_telemetry.Telemetry.rollup tel in
  let after_abs = Xenic_telemetry.Telemetry.t0 tel +. fault_ns in
  (match
     Xenic_telemetry.Detect.time_to_recovery ~after_ns:after_abs
       ~until_ns:(Xenic_telemetry.Telemetry.t0 tel +. t_end)
       roll
   with
  | None ->
      failwith
        (Printf.sprintf
           "fault (%s): telemetry detector found no recovery (windows=%d)"
           name (Array.length roll))
  | Some ttr_ns ->
      note "%s: telemetry time-to-recovery %.0fus (window %.0fus, %d windows)"
        name (ttr_ns /. 1e3) (probe_step_ns /. 1e3) (Array.length roll);
      json_num (name ^ " telemetry_ttr_us") (ttr_ns /. 1e3))

let run () =
  section "Mid-run node crash: throughput dip and recovery";
  one ~name:"smallbank"
    ~store_cfg:(Smallbank.store_cfg sb_params)
    ~buckets:(Smallbank.chained_buckets sb_params) ~cache_capacity:256
    ~load:(Smallbank.load sb_params)
    ~spec:(fun _ -> Smallbank.spec sb_params ~nodes:cluster_nodes)
    ~concurrency:8 ~target:(scale 3000);
  one ~name:"tpcc"
    ~store_cfg:(Tpcc.store_cfg tpcc_params)
    ~buckets:(Tpcc.chained_buckets tpcc_params) ~cache_capacity:8192
    ~load:(Tpcc.load tpcc_params)
    ~spec:(fun sys -> Tpcc.spec tpcc_params sys)
    ~concurrency:6 ~target:(scale 2000)
