(** Smallbank benchmark (§5.5): banking transactions over checking and
    savings balances with 12-byte objects; 15% read-only transactions,
    up to 3 keys each; 90% of accesses hit 4% of accounts. Execution is
    annotated for NIC offload (the paper ships all Smallbank execution
    to the SmartNIC). *)

(** 90% of accesses go to the hot accounts, a fixed share. *)
type params = {
  accounts_per_node : int;
  hotspot_frac : float;  (** Fraction of accounts that are hot (0.04). *)
}

val default_params : params

(** Store sizing for this workload: [(segments, seg_size, d_max)] per
    shard copy, and the chained-table buckets for the baselines. *)
val store_cfg : params -> int * int * int option

val chained_buckets : params -> int

(** Load initial balances into a system (all replicas). *)
val load : params -> Xenic_proto.System.t -> unit

(** Driver spec producing the standard transaction mix. *)
val spec : params -> nodes:int -> Driver.spec

(** Conserving-transfer-only spec for invariant tests: every
    transaction moves money between checking accounts, so the total
    balance is invariant. *)
val transfer_spec : params -> nodes:int -> Driver.spec

(** Sum of all balances as seen by [peek] on each shard's primary. *)
val total_money : params -> Xenic_proto.System.t -> int64

(** Sum of all balances on a specific node's replica of [shard]. *)
val total_money_replica : params -> Xenic_proto.System.t -> node:int -> shard:int -> int64
