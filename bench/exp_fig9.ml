(* Figure 9: contribution of Xenic's design features, enabling them
   sequentially over the DrTM+H-like baseline: (a) Retwis throughput,
   (b) Smallbank median latency, each with DrTM+H for reference. *)

open Xenic_proto
open Xenic_workload

let run_retwis_tput () =
  let p = { Retwis.default_params with keys_per_node = Common.scale 40_000 } in
  let mk =
    System.create ~nodes:Common.cluster_nodes ~replication:Common.replication
      ~store_cfg:(Retwis.store_cfg p) ~buckets:(Retwis.chained_buckets p)
  in
  (* (configuration, protocol metrics) pairs collected along the way
     for the per-phase breakdown and abort-reason tables. *)
  let collected = ref [] in
  let measure ~tag ~features =
    let sys =
      mk
        ~xenic:
          {
            Xenic_system.default_params with
            features;
            cache_capacity = p.Retwis.keys_per_node;
          }
        System.Xenic
    in
    Retwis.load p sys;
    let spec =
      Retwis.spec p ~nodes:sys.System.cfg.Xenic_cluster.Config.nodes
    in
    let tput =
      (Driver.run sys spec ~concurrency:(if !Common.quick then 16 else 32)
         ~target:(Common.scale 12_000))
        .Driver.tput_per_server
    in
    collected := (tag, sys.System.metrics ()) :: !collected;
    tput
  in
  let drtmh =
    let sys = mk System.Drtmh in
    Retwis.load p sys;
    let spec =
      Retwis.spec p ~nodes:sys.System.cfg.Xenic_cluster.Config.nodes
    in
    let tput =
      (Driver.run sys spec ~concurrency:(if !Common.quick then 16 else 32)
         ~target:(Common.scale 12_000))
        .Driver.tput_per_server
    in
    collected := ("DrTM+H", sys.System.metrics ()) :: !collected;
    tput
  in
  let t =
    Xenic_stats.Table.create
      ~title:"Fig 9a: Retwis throughput per server [txn/s]"
      ~columns:[ "configuration"; "tput"; "vs baseline"; "vs DrTM+H" ]
  in
  let baseline = measure ~tag:"baseline" ~features:Features.baseline in
  Xenic_stats.Table.add_row t
    [ "DrTM+H"; Xenic_stats.Table.cellf ~decimals:0 drtmh; "-"; "1.00x" ];
  List.iter
    (fun (name, features) ->
      let v = measure ~tag:name ~features in
      Xenic_stats.Table.add_row t
        [
          name;
          Xenic_stats.Table.cellf ~decimals:0 v;
          Printf.sprintf "%.2fx" (v /. baseline);
          Printf.sprintf "%.2fx" (v /. drtmh);
        ])
    Features.fig9a_steps;
  Xenic_stats.Table.print t;
  Common.print_phase_breakdown ~title:"Fig 9a: Retwis" (List.rev !collected);
  Common.print_abort_reasons ~title:"Fig 9a: Retwis" (List.rev !collected);
  Common.note
    "Paper: baseline 0.90x of DrTM+H; +smart ops 1.47x, +aggregation 1.98x,";
  Common.note "+async DMA 2.30x of baseline (2.07x DrTM+H)."

let run_smallbank_latency () =
  let p =
    { Smallbank.default_params with accounts_per_node = Common.scale 40_000 }
  in
  let mk =
    System.create ~nodes:Common.cluster_nodes ~replication:Common.replication
      ~store_cfg:(Smallbank.store_cfg p) ~buckets:(Smallbank.chained_buckets p)
  in
  let collected = ref [] in
  let measure ~tag ~features =
    let sys =
      mk
        ~xenic:
          {
            Xenic_system.default_params with
            features;
            cache_capacity = 2 * p.Smallbank.accounts_per_node;
          }
        System.Xenic
    in
    Smallbank.load p sys;
    let spec =
      Smallbank.spec p ~nodes:sys.System.cfg.Xenic_cluster.Config.nodes
    in
    (* Latency at low load. *)
    let med =
      (Driver.run sys spec ~concurrency:2 ~target:(Common.scale 6_000))
        .Driver.median_latency_us
    in
    collected := (tag, sys.System.metrics ()) :: !collected;
    med
  in
  let drtmh =
    let sys = mk System.Drtmh in
    Smallbank.load p sys;
    let spec =
      Smallbank.spec p ~nodes:sys.System.cfg.Xenic_cluster.Config.nodes
    in
    let med =
      (Driver.run sys spec ~concurrency:2 ~target:(Common.scale 6_000))
        .Driver.median_latency_us
    in
    collected := ("DrTM+H", sys.System.metrics ()) :: !collected;
    med
  in
  let t =
    Xenic_stats.Table.create
      ~title:"Fig 9b: Smallbank median latency [us] at low load"
      ~columns:[ "configuration"; "median us"; "vs baseline"; "vs DrTM+H" ]
  in
  let baseline = measure ~tag:"baseline" ~features:Features.baseline in
  Xenic_stats.Table.add_row t
    [ "DrTM+H"; Xenic_stats.Table.cellf drtmh; "-"; "1.00x" ];
  List.iter
    (fun (name, features) ->
      let v = measure ~tag:name ~features in
      Xenic_stats.Table.add_row t
        [
          name;
          Xenic_stats.Table.cellf v;
          Printf.sprintf "%.2fx" (v /. baseline);
          Printf.sprintf "%.2fx" (v /. drtmh);
        ])
    Features.fig9b_steps;
  Xenic_stats.Table.print t;
  Common.print_phase_breakdown ~title:"Fig 9b: Smallbank" (List.rev !collected);
  Common.print_abort_reasons ~title:"Fig 9b: Smallbank" (List.rev !collected);
  Common.note
    "Paper: baseline 1.37x of DrTM+H's latency; optimizations cut it by 42%%";
  Common.note "to 0.78x of DrTM+H (22%% below)."

let run () =
  Common.section "Figure 9: impact of Xenic's optimizations";
  run_retwis_tput ();
  run_smallbank_latency ()
