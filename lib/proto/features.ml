type t = {
  smart_ops : bool;
  eth_aggregation : bool;
  async_dma : bool;
  nic_exec : bool;
  multihop : bool;
  caching : bool;
}

let full =
  {
    smart_ops = true;
    eth_aggregation = true;
    async_dma = true;
    nic_exec = true;
    multihop = true;
    caching = true;
  }

let baseline =
  {
    smart_ops = false;
    eth_aggregation = false;
    async_dma = false;
    nic_exec = false;
    multihop = false;
    caching = true;
  }

(* Fig 9a: throughput ladder on Retwis. *)
let fig9a_steps =
  [
    ("Xenic baseline", baseline);
    ("+Smart remote ops", { baseline with smart_ops = true });
    ( "+Eth aggregation",
      { baseline with smart_ops = true; eth_aggregation = true } );
    ( "+Async DMA",
      {
        baseline with
        smart_ops = true;
        eth_aggregation = true;
        async_dma = true;
        nic_exec = true;
        multihop = true;
      } );
  ]

(* Fig 9b: latency ladder on Smallbank. *)
let fig9b_steps =
  [
    ("Xenic baseline", baseline);
    ("+Smart remote ops", { baseline with smart_ops = true });
    ( "+NIC execution",
      { baseline with smart_ops = true; nic_exec = true } );
    ( "+OCC optimization",
      {
        baseline with
        smart_ops = true;
        nic_exec = true;
        multihop = true;
        eth_aggregation = true;
        async_dma = true;
      } );
  ]
