open Xenic_cluster

type t = {
  name : string;
  cfg : Config.t;
  engine : Xenic_sim.Engine.t;
  control : Control.t;
  metrics : unit -> Metrics.t;
  ingress_occupancy : node:int -> float;
  sync : unit -> unit;
  load : Keyspace.t -> bytes -> unit;
  seal : unit -> unit;
  run_txn : node:int -> Types.t -> Types.outcome;
  peek : node:int -> Keyspace.t -> bytes option;
  ordered : node:int -> shard:int -> bytes Xenic_store.Btree.t;
  quiesce : unit -> unit;
  set_oracle : Oracle.t -> unit;
  audit : unit -> string list;
  recover_node : node:int -> unit;
  set_nic_slowdown : node:int -> float -> unit;
  degrade_nic_cores : node:int -> n:int -> dur_ns:float -> unit;
  util_sources : unit -> (string * (unit -> float)) list;
  resources : unit -> (string * Xenic_sim.Resource.t) list;
}

let of_xenic x =
  let c = Xenic_system.control x in
  {
    name = c.Control.stack;
    cfg = c.Control.cfg;
    engine = c.Control.engine;
    control = c;
    metrics = (fun () -> Control.metrics c);
    ingress_occupancy = (fun ~node -> Xenic_system.ingress_occupancy x ~node);
    sync = (fun () -> Control.sync c);
    load = (fun k v -> Xenic_system.load x k v);
    seal = (fun () -> Xenic_system.seal x);
    run_txn = (fun ~node txn -> Xenic_system.run_txn x ~node txn);
    peek = (fun ~node k -> Xenic_system.peek x ~node k);
    ordered = (fun ~node ~shard -> Xenic_system.ordered x ~node ~shard);
    quiesce = (fun () -> Xenic_system.quiesce x);
    set_oracle = (fun o -> Control.set_oracle c o);
    audit = (fun () -> Xenic_system.audit x);
    recover_node = (fun ~node -> Xenic_system.recover_node x ~node);
    set_nic_slowdown = (fun ~node f -> Xenic_system.set_nic_slowdown x ~node f);
    degrade_nic_cores =
      (fun ~node ~n ~dur_ns -> Xenic_system.degrade_nic_cores x ~node ~n ~dur_ns);
    util_sources = (fun () -> Xenic_system.util_sources x);
    resources = (fun () -> Xenic_system.resources x);
  }

let of_rdma r =
  let c = Rdma_system.control r in
  {
    name = c.Control.stack;
    cfg = c.Control.cfg;
    engine = c.Control.engine;
    control = c;
    metrics = (fun () -> Control.metrics c);
    ingress_occupancy = (fun ~node -> Rdma_system.ingress_occupancy r ~node);
    sync = (fun () -> Control.sync c);
    load = (fun k v -> Rdma_system.load r k v);
    seal = (fun () -> Rdma_system.seal r);
    run_txn = (fun ~node txn -> Rdma_system.run_txn r ~node txn);
    peek = (fun ~node k -> Rdma_system.peek r ~node k);
    ordered = (fun ~node ~shard -> Rdma_system.ordered r ~node ~shard);
    quiesce = (fun () -> Rdma_system.quiesce r);
    set_oracle = (fun o -> Control.set_oracle c o);
    audit = (fun () -> Rdma_system.audit r);
    recover_node = (fun ~node -> Rdma_system.recover_node r ~node);
    set_nic_slowdown = (fun ~node f -> Rdma_system.set_nic_slowdown r ~node f);
    degrade_nic_cores =
      (fun ~node ~n ~dur_ns -> Rdma_system.degrade_nic_cores r ~node ~n ~dur_ns);
    util_sources = (fun () -> Rdma_system.util_sources r);
    resources = (fun () -> Rdma_system.resources r);
  }

(* The end of a run: drain in-flight work, flush the oracle buffers,
   and on a strict engine fail on any protocol-audit or sim-primitive
   violation left. *)
let drain t ~who =
  Xenic_sim.Process.spawn t.engine (fun () -> t.quiesce ());
  ignore (Xenic_sim.Engine.run t.engine);
  t.sync ();
  if Xenic_sim.Engine.strict t.engine then begin
    let issues = t.audit () @ Xenic_sim.Engine.sanitize t.engine in
    if issues <> [] then
      failwith
        (Printf.sprintf "%s: %d sanitizer violation(s):\n%s" who
           (List.length issues) (String.concat "\n" issues))
  end

(* Ordered-table reads of [node]'s replica over [lo, hi], both keys of
   one shard. *)
let btree t ~node lo = t.ordered ~node ~shard:(Keyspace.shard lo)

let peek_min t ~node ~lo ~hi =
  Xenic_store.Btree.min_in_range (btree t ~node lo) ~lo ~hi

let peek_max t ~node ~lo ~hi =
  Xenic_store.Btree.max_in_range (btree t ~node lo) ~lo ~hi

let peek_range t ~node ~lo ~hi =
  List.rev
    (Xenic_store.Btree.fold_range (btree t ~node lo) ~lo ~hi ~init:[]
       (fun acc k v -> (k, v) :: acc))
