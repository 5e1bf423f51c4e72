(* Figure 8: throughput per server vs median latency for (a) TPC-C New
   Order, (b) full TPC-C, (c) Retwis, (d) Smallbank — Xenic against
   DrTM+H, DrTM+H (NC), FaSST, and DrTM+R on the 6-server testbed with
   3-way replication. Table sizes are scaled (see EXPERIMENTS.md). *)

open Xenic_proto
open Xenic_workload

let concurrencies () = if !Common.quick then [ 1; 4; 16 ] else [ 1; 2; 4; 8; 16; 32 ]

(* FaRM is described in §2.2.2 but not plotted in the paper's Fig 8;
   it runs here as an extra reference point. *)
let systems ?(app_threads = 4) ?(worker_threads = 3) ~store_cfg ~buckets ~cache () =
  Common.systems
    ~xenic:
      {
        Xenic_system.default_params with
        cache_capacity = cache;
        app_threads;
        worker_threads;
      }
    ~store_cfg ~buckets ()

let run_benchmark ?app_threads ?worker_threads ~title ~load ~spec ~store_cfg
    ~buckets ~cache ~target () =
  let series =
    List.map
      (fun (name, mk) ->
        ( name,
          Common.sweep ~concurrencies:(concurrencies ()) ~target ~load ~spec mk
        ))
      (systems ?app_threads ?worker_threads ~store_cfg ~buckets ~cache ())
  in
  Common.print_sweep ~title series;
  let merged =
    List.map (fun (n, pts) -> (n, Common.merged_sys_metrics pts)) series
  in
  Common.print_phase_breakdown ~title merged;
  Common.print_abort_reasons ~title merged;
  let xenic_peak = Common.peak (List.assoc "Xenic" series) in
  let best_alt =
    List.fold_left
      (fun acc (name, pts) -> if name = "Xenic" then acc else max acc (Common.peak pts))
      0.0 series
  in
  let xenic_lat = Common.min_median (List.assoc "Xenic" series) in
  let best_alt_lat =
    List.fold_left
      (fun acc (name, pts) ->
        if name = "Xenic" then acc else min acc (Common.min_median pts))
      infinity series
  in
  Common.note "Xenic peak %.0f txn/s/server = %.2fx best alternative (%.0f)"
    xenic_peak (xenic_peak /. best_alt) best_alt;
  Common.note
    "Xenic min median latency %.1fus = %.0f%% below best alternative (%.1fus)"
    xenic_lat
    ((1.0 -. (xenic_lat /. best_alt_lat)) *. 100.0)
    best_alt_lat;
  series

(* -- (a) TPC-C New Order -------------------------------------------- *)

let tpcc_params () =
  (* The paper runs 72 warehouses/server; we scale down (with items and
     customers) to keep simulation memory modest. Warehouse-row (Payment)
     contention rises as warehouses shrink, so the full-mix abort rates
     exceed the paper's. *)
  {
    Tpcc.default_params with
    warehouses_per_node = (if !Common.quick then 8 else 16);
    customers_per_district = 30;
    items = (if !Common.quick then 800 else 1_500);
  }

let run_tpcc_neworder () =
  let p = { (tpcc_params ()) with uniform_item_partitions = true } in
  ignore
    (run_benchmark ~app_threads:8 ~worker_threads:10
       ~title:
         "Fig 8a: TPC-C New Order (uniform item partitions), tput/server & \
          median latency"
       ~load:(Tpcc.load p)
       ~spec:(fun sys -> Tpcc.new_order_spec p sys)
       ~store_cfg:(Tpcc.store_cfg p)
       ~buckets:(Tpcc.chained_buckets p)
       ~cache:(Tpcc.hash_keys_per_shard p)
       ~target:(Common.scale 8_000) ())

(* -- (b) full TPC-C -------------------------------------------------- *)

let run_tpcc_full () =
  let p = tpcc_params () in
  let series =
    List.map
      (fun (name, mk) ->
        let points =
          List.map
            (fun concurrency ->
              let sys = mk () in
              Tpcc.load p sys;
              let result =
                Driver.run sys (Tpcc.spec p sys) ~concurrency
                  ~target:(Common.scale 8_000)
              in
              (* Per the spec, throughput counts new orders only. *)
              let window_frac =
                float_of_int (Driver.class_committed result ~cls:"new_order")
                /. float_of_int (max 1 result.Driver.committed)
              in
              {
                Common.concurrency;
                tput = result.Driver.tput_per_server *. window_frac;
                median_us = result.Driver.median_latency_us;
                p99_us = result.Driver.p99_latency_us;
                abort_rate = result.Driver.abort_rate;
                sys_metrics = sys.System.metrics ();
              })
            (concurrencies ())
        in
        (name, points))
      (systems ~app_threads:8 ~worker_threads:10
         ~store_cfg:(Tpcc.store_cfg p)
         ~buckets:(Tpcc.chained_buckets p)
         ~cache:(Tpcc.hash_keys_per_shard p) ())
  in
  Common.print_sweep
    ~title:"Fig 8b: full TPC-C mix (tput = new orders/s per server)" series;
  let merged =
    List.map (fun (n, pts) -> (n, Common.merged_sys_metrics pts)) series
  in
  Common.print_phase_breakdown ~title:"Fig 8b: full TPC-C mix" merged;
  Common.print_abort_reasons ~title:"Fig 8b: full TPC-C mix" merged;
  (* §5.3: 50 Gbps single-link comparison against DrTM+R's published
     150k new orders/s/server result. *)
  let hw50 = Xenic_params.Hw.testbed_50g in
  let sys =
    System.create ~hw:hw50 ~nodes:Common.cluster_nodes
      ~replication:Common.replication
      ~xenic:
        {
          Xenic_system.default_params with
          cache_capacity = Tpcc.hash_keys_per_shard p;
          app_threads = 8;
          worker_threads = 10;
        }
      ~store_cfg:(Tpcc.store_cfg p) ~buckets:(Tpcc.chained_buckets p) System.Xenic
  in
  Tpcc.load p sys;
  let result =
    Driver.run sys (Tpcc.spec p sys)
      ~concurrency:(if !Common.quick then 16 else 32)
      ~target:(Common.scale 8_000)
  in
  let no_frac =
    float_of_int (Driver.class_committed result ~cls:"new_order")
    /. float_of_int (max 1 result.Driver.committed)
  in
  Common.note
    "50Gbps variant: Xenic %.0f new orders/s/server (paper: 322k vs DrTM+R's \
     published 150k at 56Gbps; expect ~2x DrTM+R at matching scale)"
    (result.Driver.tput_per_server *. no_frac)

(* -- (c) Retwis ------------------------------------------------------ *)

let run_retwis () =
  let p =
    {
      Retwis.default_params with
      keys_per_node = Common.scale 50_000;
    }
  in
  ignore
    (run_benchmark ~title:"Fig 8c: Retwis (Zipf 0.5, 50% read-only)"
       ~load:(Retwis.load p)
       ~spec:(fun sys ->
         Retwis.spec p ~nodes:sys.System.cfg.Xenic_cluster.Config.nodes)
       ~store_cfg:(Retwis.store_cfg p)
       ~buckets:(Retwis.chained_buckets p)
       ~cache:p.Retwis.keys_per_node
       ~target:(Common.scale 12_000) ())

(* -- (d) Smallbank --------------------------------------------------- *)

let run_smallbank () =
  let p =
    {
      Smallbank.default_params with
      accounts_per_node = Common.scale 60_000;
    }
  in
  ignore
    (run_benchmark ~title:"Fig 8d: Smallbank (12B objects, 90/4 hotspot)"
       ~load:(Smallbank.load p)
       ~spec:(fun sys ->
         Smallbank.spec p ~nodes:sys.System.cfg.Xenic_cluster.Config.nodes)
       ~store_cfg:(Smallbank.store_cfg p)
       ~buckets:(Smallbank.chained_buckets p)
       ~cache:(2 * p.Smallbank.accounts_per_node)
       ~target:(Common.scale 16_000) ())

let run () =
  Common.section "Figure 8: transaction benchmarks, 6 servers, 3-way replication";
  run_tpcc_neworder ();
  run_tpcc_full ();
  run_retwis ();
  run_smallbank ()
