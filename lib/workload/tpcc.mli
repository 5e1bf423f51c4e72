(** TPC-C benchmark (§5.2–5.3): the full five-transaction mix over nine
    tables, plus the DrTM+H-style New-Order-only variant used for the
    Fig 8a comparison.

    Partitioning follows the paper: each node is home to
    [warehouses_per_node] warehouses; WAREHOUSE, DISTRICT, CUSTOMER and
    STOCK are distributed hash tables; ORDER, NEW-ORDER, ORDER-LINE,
    HISTORY and a customer-order index are B+ trees local to their home
    node, replicated through the log. ITEM is read-only and replicated
    at every node. Long-running Delivery transactions are chopped into
    per-district database transactions, like prior implementations. New
    Order and Payment ship execution to the NIC; the other types
    execute on the host (§5.3).

    The spec's shape is fixed: 10 districts per warehouse, a 1% chance
    that a New-Order line's supply warehouse is remote, and a 15%
    chance that a Payment's customer is remote. *)

type params = {
  warehouses_per_node : int;
  customers_per_district : int;  (** 3000 in the spec; scaled here. *)
  items : int;  (** 100k in the spec; scaled here. *)
  uniform_item_partitions : bool;
      (** Fig 8a variant: stock partitions chosen uniformly at random
          (the DrTM+H authors' strenuous access pattern). *)
}

val default_params : params

val store_cfg : params -> int * int * int option

val chained_buckets : params -> int

(** Distributed hash-table objects per shard (for cache sizing). *)
val hash_keys_per_shard : params -> int

val load : params -> Xenic_proto.System.t -> unit

(** Full five-type mix (New Order 45%, Payment 43%, Order Status 4%,
    Delivery 4%, Stock Level 4%). Throughput should be measured as the
    committed rate of class ["new_order"]. *)
val spec : params -> Xenic_proto.System.t -> Driver.spec

(** New-Order-only spec (Fig 8a). *)
val new_order_spec : params -> Xenic_proto.System.t -> Driver.spec

(** TPC-C consistency conditions over the final state; raises [Failure]
    with a description on violation:
    - per district, [d_next_o_id - 1] equals the maximum order id;
    - per warehouse, [w_ytd] equals the sum of its districts' [d_ytd];
    - per order, [o_ol_cnt] equals its number of order lines;
    - NEW-ORDER rows correspond to undelivered orders. *)
val check_consistency : params -> Xenic_proto.System.t -> unit
