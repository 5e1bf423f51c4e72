(** Umbrella module: the public face of the Xenic reproduction.

    {1 Quick tour}

    Pick a stack and a cluster shape, size the store for a workload,
    load data, and run transactions (see [examples/quickstart.ml]).
    {!Proto.System.create} builds any of the six stacks (Xenic or an
    RDMA baseline) on a fresh engine:

    {[
      let p = Xenic.Workload.Smallbank.default_params in
      let sys =
        Xenic.Proto.System.create ~nodes:6 ~replication:3
          ~store_cfg:(Xenic.Workload.Smallbank.store_cfg p)
          ~buckets:(Xenic.Workload.Smallbank.chained_buckets p)
          Xenic.Proto.System.Xenic
      in
      Xenic.Workload.Smallbank.load p sys;
      ...
    ]}

    {1 Layers}

    - {!Sim}: deterministic discrete-event engine, processes, resources.
    - {!Stats}: histograms, counters, report tables.
    - {!Params}: calibrated hardware constants ({!Params.Hw.testbed}).
    - {!Net}: fabric, packets, gather-list aggregation.
    - {!Pcie}: the LiquidIO DMA engine model.
    - {!Nicdev}: SmartNIC and RDMA NIC device models.
    - {!Store}: Robinhood table, NIC caching index, baselines' stores,
      B+ tree, host-memory log.
    - {!Cluster}: topology, key encoding, replica storage, membership.
    - {!Proto}: the Xenic transaction system and the RDMA baselines
      behind one {!Proto.System.t} interface.
    - {!Workload}: TPC-C, Retwis, Smallbank, and the closed-loop driver. *)

module Sim = Xenic_sim
module Stats = Xenic_stats
module Params = Xenic_params
module Net = Xenic_net
module Pcie = Xenic_pcie
module Nicdev = Xenic_nicdev
module Store = Xenic_store
module Cluster = Xenic_cluster
module Proto = Xenic_proto
module Workload = Xenic_workload
