(** Feature flags for the Xenic design, matching the §5.7 ablation
    steps. The full system enables everything; [baseline] mirrors
    DrTM+H's operation set on the SmartNIC substrate. *)

type t = {
  smart_ops : bool;
      (** Aggregated remote commit operations: one EXECUTE locks and
          reads all of a shard's keys. Off = DrTM+H-style separate
          read / lock / validate requests per key. *)
  eth_aggregation : bool;
      (** Per-destination gather-list Ethernet batching (§4.3.2). *)
  async_dma : bool;
      (** Continuation-passing vectored DMA; cores do other work while
          transfers are in flight (§4.3.1). Off = blocking singles. *)
  nic_exec : bool;
      (** Ship execution to the coordinator-side NIC for annotated
          transactions (§4.2.2). *)
  multihop : bool;
      (** Multi-hop OCC: ship execution to the remote primary NIC and
          route LOG responses straight to the coordinator NIC (§4.2.3). *)
  caching : bool;  (** NIC object cache (off forces DMA lookups). *)
}

val full : t

(** The §5.7 baseline: every optimization off. *)
val baseline : t

(** Ablation ladders of Fig 9. *)
val fig9a_steps : (string * t) list

val fig9b_steps : (string * t) list
