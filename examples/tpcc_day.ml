(* A day at the warehouse: run the full TPC-C mix on Xenic, then verify
   the TPC-C consistency conditions and print per-class statistics and
   a few rows from the order books.

     dune exec examples/tpcc_day.exe *)

open Xenic_cluster
open Xenic_proto
open Xenic_workload

let () =
  let p =
    {
      Tpcc.default_params with
      warehouses_per_node = 2;
      customers_per_district = 20;
      items = 400;
    }
  in
  let sys =
    System.create ~nodes:4 ~replication:3
      ~xenic:
        {
          Xenic_system.default_params with
          app_threads = 8;
          worker_threads = 8;
          cache_capacity = Tpcc.hash_keys_per_shard p;
        }
      ~store_cfg:(Tpcc.store_cfg p) ~buckets:(Tpcc.chained_buckets p)
      System.Xenic
  in
  Tpcc.load p sys;
  Format.printf "running the TPC-C mix (%d warehouses across 4 nodes)...@."
    (4 * p.Tpcc.warehouses_per_node);
  let result = Driver.run sys (Tpcc.spec p sys) ~concurrency:8 ~target:4_000 in
  Format.printf
    "committed %d txns at %.0f txn/s/server (median %.1fus, aborts %.1f%%)@."
    result.Driver.committed result.Driver.tput_per_server
    result.Driver.median_latency_us
    (100.0 *. result.Driver.abort_rate);
  List.iter
    (fun cls ->
      Format.printf "  %-13s %5d committed@." cls
        (Driver.class_committed result ~cls))
    [ "new_order"; "payment"; "order_status"; "delivery"; "stock_level" ];

  Format.printf "checking TPC-C consistency conditions...@.";
  Tpcc.check_consistency p sys;
  Format.printf "all consistency conditions hold.@.";

  (* Peek at district order books on node 0. *)
  let open Tpcc_schema in
  for d = 0 to 2 do
    match
      System.peek sys ~node:0
        (Keyspace.make ~shard:0 ~table:2 ~ordered:false ~id:d)
    with
    | Some b ->
        let dist = District.decode b in
        Format.printf "district 0.%d: next order %d, YTD %.2f@." d
          dist.District.d_next_o_id dist.District.d_ytd
    | None -> ()
  done
