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
    load = (fun k v -> Control.load c k v);
    seal = (fun () -> Xenic_system.seal x);
    run_txn = (fun ~node txn -> Xenic_system.run_txn x ~node txn);
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
    load = (fun k v -> Control.load c k v);
    seal = (fun () -> Control.seal c);
    run_txn = (fun ~node txn -> Rdma_system.run_txn r ~node txn);
    set_oracle = (fun o -> Control.set_oracle c o);
    audit = (fun () -> Rdma_system.audit r);
    recover_node = (fun ~node -> Rdma_system.recover_node r ~node);
    set_nic_slowdown = (fun ~node f -> Rdma_system.set_nic_slowdown r ~node f);
    degrade_nic_cores =
      (fun ~node ~n ~dur_ns -> Rdma_system.degrade_nic_cores r ~node ~n ~dur_ns);
    util_sources = (fun () -> Rdma_system.util_sources r);
    resources = (fun () -> Rdma_system.resources r);
  }

type stack = Xenic | Drtmh | Drtmh_nc | Fasst | Drtmr | Farm

let stacks = [ Xenic; Drtmh; Drtmh_nc; Fasst; Drtmr; Farm ]

let stack_name = function
  | Xenic -> "xenic"
  | Drtmh -> "drtmh"
  | Drtmh_nc -> "drtmh-nc"
  | Fasst -> "fasst"
  | Drtmr -> "drtmr"
  | Farm -> "farm"

let stack_of_string s =
  List.find_opt (fun st -> String.equal (stack_name st) s) stacks

let create ?strict ?domains ?(hw = Xenic_params.Hw.testbed)
    ?(xenic = Xenic_system.default_params) ?(rdma = Rdma_system.default_params)
    ?armed ?partitions ~nodes ~replication ~store_cfg ~buckets stack =
  let engine = Xenic_sim.Engine.create ?strict ?domains () in
  let cfg = Config.make ~nodes ~replication in
  let flavor f =
    let p =
      {
        rdma with
        Rdma_system.buckets;
        armed = Option.value armed ~default:rdma.Rdma_system.armed;
        partitions = Option.value partitions ~default:rdma.Rdma_system.partitions;
      }
    in
    of_rdma (Rdma_system.create engine hw cfg f p)
  in
  match stack with
  | Xenic ->
      let segments, seg_size, d_max = store_cfg in
      let p =
        {
          xenic with
          Xenic_system.segments;
          seg_size;
          d_max;
          armed = Option.value armed ~default:xenic.Xenic_system.armed;
          partitions =
            Option.value partitions ~default:xenic.Xenic_system.partitions;
        }
      in
      of_xenic (Xenic_system.create engine hw cfg p)
  | Drtmh -> flavor Rdma_system.Drtmh
  | Drtmh_nc -> flavor Rdma_system.Drtmh_nc
  | Fasst -> flavor Rdma_system.Fasst
  | Drtmr -> flavor Rdma_system.Drtmr
  | Farm -> flavor Rdma_system.Farm

(* The end of a run: drain in-flight work, flush the oracle buffers,
   and on a strict engine fail on any protocol-audit or sim-primitive
   violation left. *)
let drain t ~who =
  Xenic_sim.Process.spawn t.engine (fun () -> Control.quiesce t.control);
  ignore (Xenic_sim.Engine.run t.engine);
  t.sync ();
  if Xenic_sim.Engine.strict t.engine then begin
    let issues = t.audit () @ Xenic_sim.Engine.sanitize t.engine in
    if issues <> [] then
      failwith
        (Printf.sprintf "%s: %d sanitizer violation(s):\n%s" who
           (List.length issues) (String.concat "\n" issues))
  end

let storage t ~node = t.control.Control.storage.(node)

let peek t ~node k =
  Control.check_sealed t.control;
  Storage.read_value (storage t ~node) k

let ordered t ~node ~shard =
  (Storage.shard_store (storage t ~node) ~shard).Storage.ordered

(* Ordered-table reads of [node]'s replica over [lo, hi], both keys of
   one shard. *)
let btree t ~node lo = ordered t ~node ~shard:(Keyspace.shard lo)

let peek_min t ~node ~lo ~hi =
  Xenic_store.Btree.min_in_range (btree t ~node lo) ~lo ~hi

let peek_max t ~node ~lo ~hi =
  Xenic_store.Btree.max_in_range (btree t ~node lo) ~lo ~hi

let fold_range t ~node ~lo ~hi ~init f =
  Xenic_store.Btree.fold_range (btree t ~node lo) ~lo ~hi ~init f

let peek_range t ~node ~lo ~hi =
  List.rev (fold_range t ~node ~lo ~hi ~init:[] (fun acc k v -> (k, v) :: acc))
