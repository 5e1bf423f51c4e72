(* Table 3: minimum thread counts sustaining >= 95% of peak throughput,
   normalized by the NIC/host Coremark ratio (§5.6). For Xenic the host
   and NIC thread counts descend independently; for the RDMA systems
   the host pool descends. *)

open Xenic_proto
open Xenic_workload

type bench = {
  b_name : string;
  load : System.t -> unit;
  spec : System.t -> Driver.spec;
  store_cfg : int * int * int option;
  buckets : int;
  cache : int;
}

let benchmarks () =
  let tp =
    {
      Tpcc.warehouses_per_node = 4;
      customers_per_district = 40;
      items = 1_000;
      uniform_item_partitions = true;
    }
  in
  let rp = { Retwis.default_params with keys_per_node = Common.scale 30_000 } in
  let sp =
    { Smallbank.default_params with accounts_per_node = Common.scale 30_000 }
  in
  [
    {
      b_name = "TPC-C NO";
      load = Tpcc.load tp;
      spec = (fun sys -> Tpcc.new_order_spec tp sys);
      store_cfg = Tpcc.store_cfg tp;
      buckets = Tpcc.chained_buckets tp;
      cache = Tpcc.hash_keys_per_shard tp;
    };
    {
      b_name = "Retwis";
      load = Retwis.load rp;
      spec =
        (fun sys -> Retwis.spec rp ~nodes:sys.System.cfg.Xenic_cluster.Config.nodes);
      store_cfg = Retwis.store_cfg rp;
      buckets = Retwis.chained_buckets rp;
      cache = rp.Retwis.keys_per_node;
    };
    {
      b_name = "Smallbank";
      load = Smallbank.load sp;
      spec =
        (fun sys ->
          Smallbank.spec sp ~nodes:sys.System.cfg.Xenic_cluster.Config.nodes);
      store_cfg = Smallbank.store_cfg sp;
      buckets = Smallbank.chained_buckets sp;
      cache = 2 * sp.Smallbank.accounts_per_node;
    };
  ]

let concurrency = 16

let target () = Common.scale 5_000

let tput mk b =
  let sys = mk () in
  b.load sys;
  (Driver.run sys (b.spec sys) ~concurrency ~target:(target ()))
    .Driver.tput_per_server

(* Smallest value in [candidates] (descending order) whose throughput
   stays >= 95% of [peak]. *)
let descend ~peak candidates measure =
  let rec go best = function
    | [] -> best
    | c :: rest ->
        if Float.compare (measure c) (0.95 *. peak) >= 0 then go c rest
        else best
  in
  match candidates with
  | [] -> invalid_arg "descend"
  | first :: rest -> go first rest

let run () =
  Common.section "Table 3: normalized thread count at >=95% of peak (§5.6)";
  let t =
    Xenic_stats.Table.create
      ~title:"Threads needed (NIC threads scaled by 0.31 Coremark ratio)"
      ~columns:
        [ "benchmark"; "Xenic norm"; "(host, NIC)"; "DrTM+H"; "FaSST" ]
  in
  List.iter
    (fun b ->
      let mk =
        System.create ~nodes:Common.cluster_nodes
          ~replication:Common.replication ~store_cfg:b.store_cfg
          ~buckets:b.buckets
      in
      (* Xenic: descend host app+worker threads, then NIC threads. *)
      let xen ~host ~nic () =
        mk
          ~xenic:
            {
              Xenic_system.default_params with
              app_threads = max 1 (host / 2);
              worker_threads = max 1 (host - (host / 2));
              nic_threads = nic;
              cache_capacity = b.cache;
            }
          System.Xenic
      in
      let xen_peak = tput (xen ~host:8 ~nic:20) b in
      let host_needed =
        descend ~peak:xen_peak [ 8; 6; 4; 3; 2 ] (fun host ->
            tput (xen ~host ~nic:20) b)
      in
      let nic_needed =
        descend ~peak:xen_peak [ 20; 16; 12; 8; 4 ] (fun nic ->
            tput (xen ~host:host_needed ~nic) b)
      in
      let normalized =
        float_of_int host_needed
        +. (float_of_int nic_needed
           *. Common.hw.Xenic_params.Hw.nic_core_speed_ratio)
      in
      let rdma_threads stack =
        let rdma threads () =
          mk
            ~rdma:{ Rdma_system.default_params with host_threads = threads }
            stack
        in
        let peak = tput (rdma 24) b in
        descend ~peak [ 24; 20; 16; 12; 8; 6; 4 ] (fun threads ->
            tput (rdma threads) b)
      in
      let drtmh = rdma_threads System.Drtmh in
      let fasst = rdma_threads System.Fasst in
      Xenic_stats.Table.add_row t
        [
          b.b_name;
          Xenic_stats.Table.cellf ~decimals:1 normalized;
          Printf.sprintf "(%d, %d)" host_needed nic_needed;
          string_of_int drtmh;
          string_of_int fasst;
        ])
    (benchmarks ());
  Xenic_stats.Table.print t;
  Common.note
    "Paper: Xenic 21.7 (18,12) / 9.9 (5,16) / 9.9 (5,16) vs DrTM+H 24/18/20";
  Common.note "and FaSST 32/24/28 — Xenic saves threads on every benchmark."
