(** Transaction representation shared by Xenic and the baselines. *)

open Xenic_cluster

(** The integer a transaction attempt holds its locks under (and
    reports to the oracle as its id): [coord * 1_000_000_000 + seq],
    for attempt [seq] of coordinator [coord]. Recovery decodes the
    coordinator back out of a held lock with {!owner_coord} to break
    the locks of dead coordinators. *)
val owner_token : coord:int -> seq:int -> int

val owner_coord : int -> int

(** The read view passed to a transaction's execution function:
    [None] means the key does not exist. *)
type view = Keyspace.t -> bytes option

(** Execution outcome: either the final write operations, or a request
    for more keys — the coordinator issues further EXECUTE rounds (a
    multi-shot transaction, §4.2 step 3) and re-invokes the function
    with the extended view. Requested keys are read (and locked if in
    [lock]). *)
type exec_result =
  | Done of Op.t list
  | More of { read : Keyspace.t list; lock : Keyspace.t list }

(** A transaction declares its read and write sets up front (OCC with a
    single execution round; §4.2). The execution function transforms the
    read view into write operations; it may emit {e additional}
    operations on fresh keys (e.g. TPC-C order inserts) whose uniqueness
    is guaranteed by a lock the transaction already holds — those are
    applied at commit without their own locks. *)
type t = {
  read_set : Keyspace.t list;  (** Keys to read (values fed to [exec]). *)
  write_set : Keyspace.t list;  (** Keys to lock and overwrite. *)
  exec : view -> exec_result;  (** Execution logic (function-shippable). *)
  host_exec_ns : float;  (** Cost of [exec] on a host core. *)
  state_bytes : int;
      (** External application state shipped with the function (§4.2.2). *)
  ship_exec : bool;
      (** User annotation: run [exec] on the NIC when profitable
          (§4.3.3); ignored by RDMA baselines. *)
}

(** [make ~read_set ~write_set exec] builds a single-shot transaction
    (exec's result is wrapped in [Done]). *)
val make :
  ?host_exec_ns:float ->
  ?state_bytes:int ->
  ?ship_exec:bool ->
  read_set:Keyspace.t list ->
  write_set:Keyspace.t list ->
  (view -> Op.t list) ->
  t

(** [make_multishot] exposes the full [exec_result] interface. *)
val make_multishot :
  ?host_exec_ns:float ->
  ?state_bytes:int ->
  ?ship_exec:bool ->
  read_set:Keyspace.t list ->
  write_set:Keyspace.t list ->
  (view -> exec_result) ->
  t

(** Keys read but not written: the set needing validation. *)
val validate_set : t -> Keyspace.t list

(** [without ks keys]: the keys of [keys] not in [ks], in order. *)
val without : Keyspace.t list -> Keyspace.t list -> Keyspace.t list

(** Is every accessed key in [shard]? *)
val single_shard : t -> int option

type outcome = Committed | Aborted

val pp_outcome : Format.formatter -> outcome -> unit

(** The read view over execution results [(key, value, version)]. *)
val view_of : (Keyspace.t * bytes option * int) list -> view

(** Version assignment for LOG/COMMIT records: locked keys get their
    lock-time version + 1; fresh keys (uniqueness guaranteed by a held
    lock) start at version 1. *)
val seq_ops_of :
  lock_versions:(Keyspace.t * int) list -> Op.t list -> (Op.t * int) list

(** [group_by_shard key xs] groups [xs] by the shard of [key x]:
    shards ascending, input order kept within a shard. When every
    element is on one shard, its group is [xs] itself. *)
val group_by_shard : ('a -> Keyspace.t) -> 'a list -> (int * 'a list) list

(** Versioned writes by shard ({!group_by_shard} on the written key). *)
val group_ops_by_shard : (Op.t * int) list -> (int * (Op.t * int) list) list
