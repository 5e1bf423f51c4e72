(* Profile experiment: run Smallbank with time attribution on all six
   stacks (Xenic and the five RDMA baselines), write each stack's
   bottleneck report and collapsed-stack flamegraph, and check the
   profiler's three internal invariants:

   - same-seed determinism: two runs render byte-identical report and
     folded output;
   - accounting agreement: per-resource attributed service time equals
     the resource's integrated busy time (within float rounding);
   - critical-path closure: each committed transaction's path segments
     sum to its outer span duration.

   It also reports the share of committed path time no phase names
   ("other"), and fails when a committed path is "other" alone: its
   attempt's phase spans went to another transaction's track. *)

open Xenic_proto
open Xenic_workload
module Profile = Xenic_profile.Profile

let params () =
  { Smallbank.default_params with accounts_per_node = Common.scale 10_000 }

let profiled_run mk_sys =
  let p = params () in
  let sys = mk_sys () in
  Smallbank.load p sys;
  let spec =
    Smallbank.spec p ~nodes:sys.System.cfg.Xenic_cluster.Config.nodes
  in
  let result =
    Driver.run ~seed:7L ~profile:true sys spec ~concurrency:8
      ~target:(Common.scale 800)
  in
  match result.Driver.profile with
  | None -> failwith "exp_profile: run returned no profile"
  | Some prof -> prof

(* Largest relative |busy - attributed service| across busy resources. *)
let busy_residual prof =
  List.fold_left
    (fun acc (_, busy, service) ->
      Float.max acc (Float.abs (busy -. service) /. Float.max busy 1.0))
    0.0
    (Profile.busy_agreement prof)

(* Largest |outer duration - segment sum| across critical paths, ns. *)
let path_residual prof =
  List.fold_left
    (fun acc p ->
      let seg_sum =
        List.fold_left
          (fun a s -> a +. s.Profile.s_dur_ns)
          0.0 p.Profile.p_segs
      in
      Float.max acc (Float.abs (p.Profile.p_dur_ns -. seg_sum)))
    0.0 prof.Profile.paths

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let run_system ~label mk_sys =
  let prof1 = profiled_run mk_sys in
  let prof2 = profiled_run mk_sys in
  let report = Profile.report prof1 in
  let folded = Profile.folded prof1 in
  let deterministic =
    String.equal report (Profile.report prof2)
    && String.equal folded (Profile.folded prof2)
  in
  let txt = Printf.sprintf "PROFILE_%s.txt" label in
  let fld = Printf.sprintf "PROFILE_%s.folded" label in
  write_file txt report;
  write_file fld folded;
  print_string report;
  Common.note "%s: %d busy resources, %d critical paths -> %s, %s" label
    (List.length prof1.Profile.rows)
    (List.length prof1.Profile.paths)
    txt fld;
  Common.note "%s: same-seed reruns byte-identical: %s" label
    (if deterministic then "yes" else "NO -- DETERMINISM VIOLATION");
  Common.json_int (label ^ " profile deterministic")
    (if deterministic then 1 else 0);
  Common.json_int (label ^ " busy resources") (List.length prof1.Profile.rows);
  Common.json_int (label ^ " critical paths")
    (List.length prof1.Profile.paths);
  Common.json_num (label ^ " busy residual rel") (busy_residual prof1);
  Common.json_num (label ^ " path residual ns") (path_residual prof1);
  (match prof1.Profile.rows with
  | top :: _ ->
      Common.json_num
        (label ^ " top utilization")
        top.Profile.r_utilization
  | [] -> ());
  let other_frac, blind = Profile.other_share prof1 in
  Common.json_num (label ^ " path other frac") other_frac;
  Common.note "%s: %.3f of committed path time is other; %d paths all other"
    label other_frac blind;
  if blind > 0 then
    failwith
      (Printf.sprintf "profile: %s: %d committed paths are all other" label
         blind)

let run () =
  Common.section
    "Profile: per-resource time attribution and bottlenecks (Smallbank)";
  let p = params () in
  List.iter
    (fun stack ->
      (* BENCH_profile.json keys spell drtmh-nc as drtmh_nc. *)
      let label =
        String.map (function '-' -> '_' | c -> c) (System.stack_name stack)
      in
      run_system ~label (fun () ->
          System.create ~nodes:Common.cluster_nodes
            ~replication:Common.replication
            ~xenic:
              {
                Xenic_system.default_params with
                cache_capacity = 2 * p.Smallbank.accounts_per_node;
              }
            ~store_cfg:(Smallbank.store_cfg p)
            ~buckets:(Smallbank.chained_buckets p) stack))
    System.stacks
