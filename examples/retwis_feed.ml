(* Retwis feed: run the Twitter-clone mix on Xenic and on DrTM+H over
   identical data, compare throughput/latency, and show the NIC
   cache/aggregation statistics that explain the difference.

     dune exec examples/retwis_feed.exe *)

open Xenic_proto
open Xenic_workload

let p = { Retwis.default_params with keys_per_node = 5_000 }

let nodes = 4

let measure name (sys : System.t) =
  Retwis.load p sys;
  let result =
    Driver.run sys (Retwis.spec p ~nodes) ~concurrency:12 ~target:6_000
  in
  Format.printf
    "%-8s %8.0f txn/s/server  median %5.1fus  p99 %5.1fus  aborts %4.1f%%@."
    name result.Driver.tput_per_server result.Driver.median_latency_us
    result.Driver.p99_latency_us
    (100.0 *. result.Driver.abort_rate);
  result

let () =
  (* One builder for both stacks, each sized for the same Retwis data. *)
  let build stack =
    System.create ~nodes ~replication:3
      ~xenic:
        {
          Xenic_system.default_params with
          cache_capacity = p.Retwis.keys_per_node;
        }
      ~store_cfg:(Retwis.store_cfg p) ~buckets:(Retwis.chained_buckets p)
      stack
  in
  let xenic = build System.Xenic in
  let xres = measure "Xenic" xenic in
  let dres = measure "DrTM+H" (build System.Drtmh) in

  Format.printf "@.speedup: %.2fx throughput, %.0f%% latency change@."
    (xres.Driver.tput_per_server /. dres.Driver.tput_per_server)
    (100.0
    *. ((xres.Driver.median_latency_us /. dres.Driver.median_latency_us) -. 1.0));
  let c = Metrics.counters (xenic.System.metrics ()) in
  Format.printf
    "Xenic internals: %.0f protocol messages, %.0f DMA reads, %.0f DMA writes@."
    (Xenic_stats.Counter.get c "msgs")
    (Xenic_stats.Counter.get c "dma_reads")
    (Xenic_stats.Counter.get c "dma_writes")
