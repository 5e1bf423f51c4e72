(* Experiment harness: regenerates every table and figure of the
   paper's evaluation. Run all experiments with

     dune exec bench/main.exe

   or a subset by id: fig2 fig3 fig4 tab1 tab2 fig8 tab3 fig9 fault
   micro trace. Pass --quick (or set XENIC_QUICK=1) for reduced run sizes.
   Each experiment also writes its scalar metrics to BENCH_<id>.json
   in the current directory. *)

let experiments =
  [
    ("fig2", "remote operation latency", Exp_fig2.run);
    ("fig3", "remote write throughput / batching", Exp_fig3.run);
    ("fig4", "DMA engine throughput and latency", Exp_fig4.run);
    ("tab1", "NIC vs host core benchmarks", Exp_tab1.run);
    ("tab2", "lookup efficiency at 90% occupancy", Exp_tab2.run);
    ("fig8", "TPC-C / Retwis / Smallbank vs baselines", Exp_fig8.run);
    ("tab3", "normalized thread counts", Exp_tab3.run);
    ("fig9", "optimization ablations", Exp_fig9.run);
    ("fault", "mid-run node crash: dip and recovery", Exp_fault.run);
    ("micro", "wall-clock data structure microbenches", Exp_micro.run);
    ("trace", "deterministic phase/utilization tracing", Exp_trace.run);
    ("profile", "time attribution and bottleneck report", Exp_profile.run);
    ("sim", "engine hot-path events/sec, 1 vs 2 windowed domains", Exp_sim.run);
    ("scale", "nodes x replication scale-out sweep", Exp_scale.run);
    ("load", "open-loop offered load vs goodput under admission control", Exp_load.run);
    ("parity", "windowed 1-domain vs 2-domain bit-identity gate", Exp_parity.run);
    ("scenario", "declarative fault/load scenario corpus", Exp_scenario.run);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
        if a = "--quick" then begin
          Common.quick := true;
          false
        end
        else true)
      args
  in
  let selected =
    match args with
    | [] -> experiments
    | ids ->
        List.filter_map
          (fun id ->
            match List.find_opt (fun (i, _, _) -> i = id) experiments with
            | Some e -> Some e
            | None ->
                Printf.eprintf "unknown experiment %S\n" id;
                exit 1)
          ids
  in
  Printf.printf "Xenic reproduction harness (%s mode)\n"
    (if !Common.quick then "quick" else "full");
  List.iter
    (fun (id, desc, run) ->
      Printf.printf "\n[%s] %s\n" id desc;
      Common.json_reset ();
      run ();
      (* Machine-readable companion to the printed tables. *)
      Common.json_write ~id ~desc)
    selected;
  print_newline ()
