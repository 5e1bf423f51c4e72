open Xenic_sim
open Xenic_cluster
open Xenic_nicdev
module Locks = Xenic_store.Kv.Key_tbl

type flavor = Drtmh | Drtmh_nc | Fasst | Drtmr | Farm

let flavor_name = function
  | Drtmh -> "DrTM+H"
  | Drtmh_nc -> "DrTM+H (NC)"
  | Fasst -> "FaSST"
  | Drtmr -> "DrTM+R"
  | Farm -> "FaRM"

let bucket_b = 8

type params = {
  host_threads : int;
  worker_threads : int;
  buckets : int;
  armed : bool;
      (* request deadlines, the epoch-fenced commit point and a started
         lease-based membership (see [Control]); false (default): the
         fault-free fast path *)
  partitions : int;
      (* > 1: windowed conservative-PDES topology over this many node
         partitions, with metrics and the oracle feed sharded per
         partition (same contract as [Xenic_system.params.partitions]:
         un-armed runs only, no membership/trace). 0 or 1: one
         partition. *)
}

let default_params =
  {
    host_threads = 24;
    worker_threads = 4;
    buckets = 4096;
    armed = false;
    partitions = 0;
  }

type msg = Control.msg

type node = {
  id : int;
  locks : int Locks.t;  (* key -> owner token *)
  host : Resource.t;  (* app threads, RPC handlers and log applies *)
  log : Control.log_record Xenic_store.Hostlog.t;
}

type t = {
  ctl : Control.t;  (* routing, fence, recovery, metrics/oracle *)
  hw : Xenic_params.Hw.t;
  flavor : flavor;
  p : params;
  rdma : msg Rdma.t;
  nodes : node array;
  tr : Control.transport;  (* RPC transport, built once *)
}

let control t = t.ctl

let counters t = Control.counters t.ctl

let primary_of t ~shard = Control.current_primary t.ctl ~shard

(* ------------------------------------------------------------------ *)
(* Host-memory object operations, executed at their linearization point
   (inside RPC handlers or one-sided at_target closures) on the node's
   replica store. *)

let obj_read t ~node k = Storage.read t.ctl.storage.(node) k

let try_lock t ~node k ~owner =
  let locks = t.nodes.(node).locks in
  match Locks.find_opt locks k with
  | Some o when o <> owner -> false
  | _ ->
      Locks.replace locks k owner;
      true

let unlock t ~node k ~owner =
  let locks = t.nodes.(node).locks in
  match Locks.find_opt locks k with
  | Some o when o = owner -> Locks.remove locks k
  | _ -> ()

let locked_by_other t ~node k ~owner =
  match Locks.find_opt t.nodes.(node).locks k with
  | Some o -> o <> owner
  | None -> false

(* [node]'s host lock table, sorted. *)
let held_locks t ~node =
  Locks.fold (fun k owner acc -> (k, owner) :: acc) t.nodes.(node).locks []
  |> List.sort compare

(* Dead-owner lock sweep over [node]'s host lock table. *)
let sweep_locks t ~node ~dead =
  List.fold_left
    (fun broken (k, owner) ->
      if dead owner then begin
        Locks.remove t.nodes.(node).locks k;
        broken + 1
      end
      else broken)
    0 (held_locks t ~node)

(* ------------------------------------------------------------------ *)
(* Two-sided RPC path *)

(* Two-sided RPCs: the request is counted as it leaves, the receive
   buffer is charged at the target's NIC in the handler's process, and
   the caller polls for the completion: a [Charged] reply whose charge,
   built once, is the poll delay. Each message carries its sender's
   attribution context. A stale request is refused in place, with no
   wire hop. *)
let transport ctl (hw : Xenic_params.Hw.t) rdma =
  let poll =
    Control.Charged
      (fun k -> Engine.after ctl.Control.engine hw.rdma_completion_poll_ns k)
  in
  {
    Control.depart =
      (fun ~src:_ ~dst:_ ~bytes:_ ->
        Xenic_stats.Counter.incr (Control.counters ctl) "rpcs");
    send =
      (fun ~src ~dst ~bytes handler ->
        Rdma.rpc_send rdma ~src ~dst ~bytes
          (Control.message ~bytes Control.In_process (fun () ->
               Rdma.rpc_recv_cost rdma ~node:dst;
               handler ())));
    back =
      (fun ~src ~dst ~bytes k ->
        Rdma.rpc_send rdma ~src:dst ~dst:src ~bytes (Control.message ~bytes poll k));
    reject = (fun ~src:_ ~dst:_ ~bytes:_ k -> k ());
  }

(* RPC from a coordinator host thread ({!Control.call}). The handler
   runs on a host thread at the target for [handler_ns]. Local calls
   short-circuit the network but still pay handler compute. *)
let rpc t ?epoch0 ~src ~dst ~req_bytes ~resp_bytes ~handler_ns handler =
  let host = t.nodes.(dst).host in
  if src = dst then begin
    Resource.use host handler_ns;
    `Ok (handler ())
  end
  else
    Control.call t.ctl t.tr ?epoch0 ~src ~dst ~req_bytes ~resp_bytes (fun () ->
        Resource.acquire host;
        Process.sleep t.ctl.engine handler_ns;
        let r = handler () in
        Resource.release host;
        r)

(* One-sided verb against a remote node's host memory. Local accesses
   become plain host-memory operations. *)
let one_sided t ~src ~dst verb ~bytes ~at_target =
  if src = dst then begin
    Process.sleep t.ctl.engine t.hw.host_op_ns;
    at_target ()
  end
  else begin
    Xenic_stats.Counter.incr (counters t) "verbs";
    Rdma.one_sided t.rdma ~src ~dst verb ~bytes ~at_target
  end

(* A batch's local accesses, in order, each a plain host-memory
   operation before the remote verbs go out. *)
let rec local_accesses t ~src = function
  | [] -> []
  | (dst, _, _, at_target) :: rest when dst = src ->
      Process.sleep t.ctl.engine t.hw.host_op_ns;
      let r = at_target () in
      r :: local_accesses t ~src rest
  | _ :: rest -> local_accesses t ~src rest

let rec remote_verbs ~src = function
  | [] -> []
  | ((dst, _, _, _) as v) :: rest ->
      if dst <> src then v :: remote_verbs ~src rest else remote_verbs ~src rest

let one_sided_many t ~src verbs =
  let remote, local_results =
    match local_accesses t ~src verbs with
    | [] -> (verbs, [])
    | results -> (remote_verbs ~src verbs, results)
  in
  Xenic_stats.Counter.add (counters t) "verbs" (List.length remote);
  match remote with
  | [] -> local_results
  | _ -> local_results @ Rdma.one_sided_many t.rdma ~src remote

(* Armed entry guards for one-sided verbs: a verb against a crashed
   target never completes, and nothing executes there. *)
let down t ~src ~dst = t.p.armed && dst <> src && t.ctl.crashed.(dst)

let one_sided_t t ~src ~dst verb ~bytes ~at_target =
  if down t ~src ~dst then Control.give_up t.ctl
  else `Ok (one_sided t ~src ~dst verb ~bytes ~at_target)

(* All-or-nothing doorbell batch: if any target of the batch is
   crashed, the batch fails without executing anywhere — the
   coordinator sees the missing completion and gives up on the whole
   attempt, so no partial remote state is installed. *)
let rec any_down t ~src = function
  | [] -> false
  | (dst, _, _, _) :: rest -> down t ~src ~dst || any_down t ~src rest

let one_sided_many_t t ~src verbs =
  if any_down t ~src verbs then Control.give_up t.ctl
  else `Ok (one_sided_many t ~src verbs)

(* ------------------------------------------------------------------ *)
(* Construction *)

let create engine hw cfg flavor p =
  let ctl =
    Control.create engine hw cfg ~stack:(flavor_name flavor)
      ~partitions:p.partitions ~armed:p.armed ~table:(fun () ->
        (* FaRM: (version, value) in an H=8 Hopscotch table (§2.2.2). *)
        if flavor = Farm then
          Storage.Hopscotch
            (Xenic_store.Hopscotch.create ~capacity:(p.buckets * bucket_b * 2)
               ~h:8)
        else
          Storage.Chained
            (Xenic_store.Chained.create ~buckets:p.buckets ~b:bucket_b))
  in
  Xenic_net.Fabric.set_rate_override ctl.fabric
    (Some (Xenic_params.Hw.rdma_rate hw));
  let rdma = Rdma.create ctl.fabric in
  let nodes =
    Array.init cfg.Config.nodes (fun id ->
        {
          id;
          locks = Locks.create 1024;
          host =
            Resource.create engine
              ~name:(Printf.sprintf "host%d" id)
              ~servers:p.host_threads;
          log = Control.host_log ctl ~node:id ~name:"log";
        })
  in
  let t = { ctl; hw; flavor; p; rdma; nodes; tr = transport ctl hw rdma } in
  Array.iter
    (fun node ->
      (* No SmartNIC: RDMA NIC costs are charged per verb and RPC inside
         [Rdma], not per dispatched frame. *)
      Control.dispatch_loop ctl ~node:node.id ~pkt_io:None;
      for _ = 1 to p.worker_threads do
        (* Log application competes with RPC handling and coordinator
           work for the same host threads (§5.2: FaSST handles RPCs on
           the threads performing compute-intensive B+ tree work). *)
        Control.log_worker ctl ~node:node.id ~log:node.log ~pool:node.host
          ~applied:ignore
      done)
    nodes;
  (* Recovery's data plane: the successor drains its backup log, and
     since stores are fully replicated, promotion is a routing change
     only. *)
  if p.armed then
    Control.attach_membership ctl ~sweep_locks:(sweep_locks t)
      ~promote:(fun ~shard:_ ~successor -> successor);
  t

(* Admission backpressure: the most loaded of the host RPC pool and the
   (single-server) RDMA NIC processing unit. *)
let ingress_occupancy t ~node =
  let n = t.nodes.(node) in
  let host_frac =
    float_of_int (Resource.in_use n.host + Resource.queue_length n.host)
    /. float_of_int (Resource.servers n.host)
  in
  Float.max host_frac (float_of_int (Rdma.unit_busy t.rdma ~node))

(* Instantaneous-occupancy gauges for the trace sampler (RDMA baselines
   have no SmartNIC: links and host pools only). *)
let util_sources t =
  Array.to_list t.nodes
  |> List.concat_map (fun n ->
         [
           ( Printf.sprintf "node%d link" n.id,
             fun () ->
               float_of_int (Xenic_net.Fabric.link_busy t.ctl.fabric ~node:n.id) );
           ( Printf.sprintf "node%d host pool" n.id,
             fun () -> float_of_int (Resource.in_use n.host) );
         ])

(* Every contended resource, labeled for the profiler. Host-pool, NIC
   and fabric names are already node-unique. *)
let resources t =
  let pools =
    Array.to_list t.nodes |> List.map (fun n -> (Resource.name n.host, n.host))
  in
  let named rs = List.map (fun r -> (Resource.name r, r)) rs in
  pools @ named (Rdma.resources t.rdma)
  @ named (Xenic_net.Fabric.resources t.ctl.fabric)

(* After [Control.quiesce] every per-node lock table must be empty and
   every log drained. *)
let audit t = Control.audit t.ctl ~locked:(held_locks t)

(* ------------------------------------------------------------------ *)
(* Object wire sizes *)

(* The slot holding [k] at [node] now: what a one-sided READ of [k]
   transfers. *)
let value_slot_b t ~node k =
  let v = Storage.read_value t.ctl.storage.(node) k in
  Xenic_store.Kv.slot_bytes ~value_b:(Option.fold ~none:0 ~some:Bytes.length v)

(* One key's execution read, a branch of the attempt's read join: [hops]
   round trips to the key's primary, each a one-sided READ with its own
   doorbell (a host-memory access when the coordinator is the primary),
   the value read on the last. With the address cache the coordinator
   reads the object's exact location; without it (NC) it walks the
   chained buckets, one READ of B slots per bucket; FaRM reads the
   H-slot neighborhood, and an overflow key needs a second round trip
   for the chain (§2.2.2, Table 2). A record, not a fiber: each hop's
   completion starts the next, the last arrives at the join. *)
type xread = {
  sys : t;
  x_src : int;
  x_primary : int;
  x_key : Keyspace.t;
  x_bytes : int;
  x_hops : int;
  mutable x_hop : int;  (* round trips done *)
  x_ctx : Attrib.ctx;
  x_join : (bytes * int) option Process.join;
  x_slot : int;
}

let xread t ~src ~primary j slot k =
  let hops, bytes =
    match t.flavor with
    | Farm | Drtmh_nc ->
        let shard = Keyspace.shard k in
        let cost, slots =
          match (Storage.shard_store t.ctl.storage.(primary) ~shard).hash with
          | Storage.Hopscotch h -> (Xenic_store.Hopscotch.lookup_cost h k, 8)
          | Storage.Chained c -> (Xenic_store.Chained.lookup_cost c k, bucket_b)
          | Storage.Robinhood _ -> invalid_arg "Rdma_system: Robinhood store"
        in
        ( (match cost with Some (_, rts) -> rts | None -> 1),
          slots * Xenic_store.Kv.slot_bytes ~value_b:64 )
    | Drtmh | Fasst | Drtmr -> (1, value_slot_b t ~node:primary k)
  in
  {
    sys = t;
    x_src = src;
    x_primary = primary;
    x_key = k;
    x_bytes = bytes;
    x_hops = hops;
    x_hop = 0;
    x_ctx = Attrib.get ();
    x_join = j;
    x_slot = slot;
  }

(* What the current hop reads at the primary: the object, on the last. *)
let xread_value x =
  if x.x_hop = x.x_hops - 1 then obj_read x.sys ~node:x.x_primary x.x_key
  else None

let rec xread_hop x =
  let t = x.sys in
  if x.x_primary = x.x_src then
    Engine.after t.ctl.engine t.hw.host_op_ns (fun () -> xread_local x)
  else begin
    Xenic_stats.Counter.incr (counters t) "verbs";
    Rdma.post t.rdma ~src:x.x_src ~dst:x.x_primary Rdma.Read ~bytes:x.x_bytes
      ~doorbell:true
      ~at_target:(fun () -> xread_value x)
      (fun r -> xread_done x r)
  end

and xread_local x =
  let ambient = Attrib.swap x.x_ctx in
  xread_done x (xread_value x);
  Attrib.set ambient

and xread_done x r =
  x.x_hop <- x.x_hop + 1;
  if x.x_hop < x.x_hops then xread_hop x
  else begin
    Xenic_stats.Counter.add (counters x.sys) "read_roundtrips" x.x_hops;
    Process.arrive x.x_join x.x_slot r
  end

(* Start the reads of [keys] from slot [i] on; [true] if a key's primary
   is down: nothing is read for it, and its slot arrives empty after the
   full request timeout. *)
let rec start_reads t ~src j i any_down = function
  | [] -> any_down
  | k :: rest ->
      let primary = primary_of t ~shard:(Keyspace.shard k) in
      if down t ~src ~dst:primary then begin
        Control.give_up_then t.ctl (fun () -> Process.arrive j i None);
        start_reads t ~src j (i + 1) true rest
      end
      else begin
        xread_hop (xread t ~src ~primary j i k);
        start_reads t ~src j (i + 1) any_down rest
      end

let rec read_entries keys results =
  match (keys, results) with
  | k :: keys, Some (v, seq) :: results ->
      (k, Some v, seq) :: read_entries keys results
  | k :: keys, None :: results -> (k, None, 0) :: read_entries keys results
  | _ -> []

(* The execution phase of DrTM+H, DrTM+H (NC) and FaRM: every read-set
   object, all keys at once, the caller suspended once. `Down if a
   key's primary is down. *)
let exec_reads t ~src keys =
  let j = Process.join (List.length keys) in
  let any_down = start_reads t ~src j 0 false keys in
  let results = Process.await j in
  if any_down then `Down else `Ok (read_entries keys results)

(* ------------------------------------------------------------------ *)
(* Phase implementations

   The walks below are top-level functions, not closures built per
   call. Each keeps its list's order, which fixes the order of requests
   and with it the order of events. *)

let small_resp_b _ = Wire.small_resp_b

(* [node]'s version of [k] now; 0 for an absent key. *)
let version t ~node k =
  match obj_read t ~node k with Some (_, s) -> s | None -> 0

let rec unlock_keys t ~node ~owner = function
  | [] -> ()
  | k :: keys ->
      unlock t ~node k ~owner;
      unlock_keys t ~node ~owner keys

let rec unlock_versions t ~node ~owner = function
  | [] -> ()
  | (k, _) :: rest ->
      unlock t ~node k ~owner;
      unlock_versions t ~node ~owner rest

(* The keys of [shard] among [keys], and the others, each in list
   order. *)
let rec shard_keys shard = function
  | [] -> []
  | k :: keys ->
      if Keyspace.shard k = shard then k :: shard_keys shard keys
      else shard_keys shard keys

let rec other_keys shard = function
  | [] -> []
  | k :: keys ->
      if Keyspace.shard k = shard then other_keys shard keys
      else k :: other_keys shard keys

(* DrTM+R's one-sided unlock: one WRITE per key. *)
let rec unlock_verbs t ~primary ~owner = function
  | [] -> []
  | k :: keys ->
      (primary, Rdma.Write, 16, fun () -> unlock t ~node:primary k ~owner)
      :: unlock_verbs t ~primary ~owner keys

(* Release [keys], all of [shard], at its current primary. Locks at a
   crashed primary died with its memory. No epoch stamp: an abort must
   land across a bump (unlock is owner-guarded, so it is safe in any
   configuration). *)
let release_shard t a shard keys =
  let src = a.Control.coord and owner = a.owner in
  let primary = primary_of t ~shard in
  if not t.ctl.crashed.(primary) then
    match t.flavor with
    | Drtmr ->
        ignore (one_sided_many_t t ~src (unlock_verbs t ~primary ~owner keys))
    | _ ->
        ignore
          (rpc t ~src ~dst:primary
             ~req_bytes:(Wire.abort_b ~n_locks:(List.length keys))
             ~resp_bytes:small_resp_b ~handler_ns:t.hw.host_rpc_ns
             (fun () -> unlock_keys t ~node:primary ~owner keys))

let rec release_groups t a = function
  | [] -> ()
  | (shard, keys) :: rest ->
      release_shard t a shard keys;
      release_groups t a rest

(* Release [keys], shard by shard; within a shard, unlocks go out in
   reverse order. *)
let release_keys t a keys =
  release_groups t a (Types.group_by_shard Fun.id (List.rev keys))

(* Lock-acquire RPC handler at [primary]: lock [keys] in order, with
   each key's version at lock time ([taken] holds those already locked,
   latest first); on a conflict release the locks already taken and
   return [None]. *)
let rec lock_at t ~primary ~owner taken = function
  | [] -> Some (List.rev taken)
  | k :: rest ->
      if try_lock t ~node:primary k ~owner then
        lock_at t ~primary ~owner ((k, version t ~node:primary k) :: taken) rest
      else begin
        unlock_versions t ~node:primary ~owner taken;
        None
      end

(* Per-shard lock results [(shard, `Down | `Fail | `Ok (lock versions,
   values))]. *)
let rec has_down = function
  | [] -> false
  | (_, `Down) :: _ -> true
  | _ :: rest -> has_down rest

let rec has_fail = function
  | [] -> false
  | (_, `Fail) :: _ -> true
  | _ :: rest -> has_fail rest

let rec release_taken t a = function
  | [] -> ()
  | (shard, `Ok ((_ :: _ as lockv), _)) :: rest ->
      release_shard t a shard (List.map fst lockv);
      release_taken t a rest
  | _ :: rest -> release_taken t a rest

(* Every shard's lock versions, then every shard's values, each in
   result order; one shard's list is returned as it is. *)
let rec lock_versions_of = function
  | [] -> []
  | (_, `Ok (lv, _)) :: rest -> (
      match lock_versions_of rest with [] -> lv | tail -> lv @ tail)
  | _ :: rest -> lock_versions_of rest

let rec values_of = function
  | [] -> []
  | (_, `Ok (_, vs)) :: rest -> (
      match values_of rest with [] -> vs | tail -> vs @ tail)
  | _ :: rest -> values_of rest

(* Gather per-shard lock results. Any `Down or `Fail releases the locks
   taken at the other shards; otherwise the lock versions and values of
   every shard, in result order. *)
let gather_locks t a results =
  let down = has_down results in
  if down || has_fail results then begin
    if not down then
      Xenic_stats.Counter.incr (counters t) "exec_lock_conflicts";
    release_taken t a results;
    if down then `Down else `Fail
  end
  else `Ok (lock_versions_of results, values_of results)

(* The write set grouped by shard in the order the lock requests go
   out: the shard seen last first, each shard's keys latest first (the
   order an association list built key by key gives). *)
let rec lock_groups = function
  | [] -> []
  | k :: _ as keys ->
      let shard = Keyspace.shard k in
      (shard, shard_keys shard keys) :: lock_groups (other_keys shard keys)

(* DrTM+R's CAS of each key's lock word. *)
let rec cas_verbs t ~primary ~owner = function
  | [] -> []
  | k :: keys ->
      ( primary,
        Rdma.Cas,
        16,
        fun () -> if try_lock t ~node:primary k ~owner then `Got k else `Held )
      :: cas_verbs t ~primary ~owner keys

let rec acquired = function
  | [] -> []
  | `Got k :: rest -> k :: acquired rest
  | `Held :: rest -> acquired rest

(* DrTM+R's READ of each locked key's value. *)
let rec read_verbs t ~primary = function
  | [] -> []
  | k :: keys ->
      ( primary,
        Rdma.Read,
        value_slot_b t ~node:primary k,
        fun () -> (k, obj_read t ~node:primary k) )
      :: read_verbs t ~primary keys

let rec read_versions = function
  | [] -> []
  | (k, Some (_, seq)) :: rest -> (k, seq) :: read_versions rest
  | (k, None) :: rest -> (k, 0) :: read_versions rest

let rec read_values = function
  | [] -> []
  | (k, Some (v, seq)) :: rest -> (k, Some v, seq) :: read_values rest
  | (k, None) :: rest -> (k, None, 0) :: read_values rest

let lock_resp_b = function
  | None -> Wire.small_resp_b
  | Some lockv -> Wire.small_resp_b + (8 * List.length lockv)

(* Lock [keys], all of [shard]: DrTM+R CAS-locks each key one-sided and
   then READs the locked values; the others send one lock RPC. *)
let lock_shard t a ~epoch0 (shard, keys) () =
  let src = a.Control.coord and owner = a.owner in
  let primary = primary_of t ~shard in
  match t.flavor with
  | Drtmr -> (
      match one_sided_many_t t ~src (cas_verbs t ~primary ~owner keys) with
      | `Down -> (shard, `Down)
      | `Ok cas_results -> (
          let got = acquired cas_results in
          if List.length got <> List.length keys then begin
            if got <> [] then
              ignore
                (one_sided_many_t t ~src (unlock_verbs t ~primary ~owner got));
            (shard, `Fail)
          end
          else
            match one_sided_many_t t ~src (read_verbs t ~primary keys) with
            | `Down -> (shard, `Down)
            | `Ok reads ->
                (shard, `Ok (read_versions reads, read_values reads))))
  | _ -> (
      (* Lock RPC: acquires the shard's locks and returns versions
         only — in DrTM+H the object values were already retrieved by
         one-sided execution reads ("retrieve the value, then lock"). *)
      let r =
        rpc t ~epoch0 ~src ~dst:primary
          ~req_bytes:
            (Wire.execute_req_b ~n_reads:0 ~n_locks:(List.length keys)
               ~state_bytes:0)
          ~resp_bytes:lock_resp_b
          ~handler_ns:
            (t.hw.host_rpc_ns
            +. (float_of_int (List.length keys) *. t.hw.host_op_ns))
          (fun () -> lock_at t ~primary ~owner [] keys)
      in
      match r with
      | `Down -> (shard, `Down)
      | `Ok None -> (shard, `Fail)
      | `Ok (Some lockv) -> (shard, `Ok (lockv, [])))

(* Lock the write set. DrTM+H, DrTM+H (NC) and FaRM lock via one RPC
   per shard; DrTM+R CAS-locks each key one-sided and then READs the
   locked values. Returns the lock versions and DrTM+R's values read,
   or `Fail / `Down with every acquired lock already released. *)
let lock_phase t a ~epoch0 (write_keys : Keyspace.t list) =
  gather_locks t a
    (Process.parallel t.ctl.engine
       (List.map (lock_shard t a ~epoch0) (lock_groups (List.rev write_keys))))

(* A validation check at [node]: [k] is not locked by another
   transaction and still has the version read. *)
let check t ~node ~owner (k, expected) =
  (not (locked_by_other t ~node k ~owner)) && version t ~node k = expected

let rec checks_hold t ~node ~owner = function
  | [] -> true
  | c :: rest -> check t ~node ~owner c && checks_hold t ~node ~owner rest

let rec check_verbs t ~owner = function
  | [] -> []
  | ((k, _) as c) :: rest ->
      let primary = primary_of t ~shard:(Keyspace.shard k) in
      (primary, Rdma.Read, Xenic_store.Kv.slot_header_b, fun () ->
          check t ~node:primary ~owner c)
      :: check_verbs t ~owner rest

let validate_shard t a ~epoch0 (shard, cs) () =
  let primary = primary_of t ~shard and owner = a.Control.owner in
  rpc t ~epoch0 ~src:a.coord ~dst:primary
    ~req_bytes:(Wire.validate_req_b ~n_checks:(List.length cs))
    ~resp_bytes:small_resp_b
    ~handler_ns:
      (t.hw.host_rpc_ns +. (float_of_int (List.length cs) *. t.hw.host_op_ns))
    (fun () -> checks_hold t ~node:primary ~owner cs)

let rec all_valid = function
  | [] -> true
  | `Ok true :: rest -> all_valid rest
  | (`Ok false | `Down) :: _ -> false

(* An [`Invalid] verdict counts [validate_conflicts]. *)
let verdict t ok =
  if ok then `Valid
  else begin
    Xenic_stats.Counter.incr (counters t) "validate_conflicts";
    `Invalid
  end

(* Validation: DrTM+H/NC and FaRM re-read version words one-sided;
   FaSST uses a per-shard RPC. DrTM+R locks every key it reads, so it
   never has checks to validate. *)
let validate_phase t a ~epoch0 checks =
  match t.flavor with
  | Fasst ->
      let results =
        Process.parallel t.ctl.engine
          (List.map (validate_shard t a ~epoch0)
             (Types.group_by_shard fst checks))
      in
      if List.mem `Down results then `Down else verdict t (all_valid results)
  | Drtmh | Drtmh_nc | Drtmr | Farm -> (
      match
        one_sided_many_t t ~src:a.Control.coord
          (check_verbs t ~owner:a.owner checks)
      with
      | `Down -> `Down
      | `Ok results -> verdict t (List.for_all Fun.id results))

(* LOG: replicate the write set to every backup, each record carrying
   [decision]. DrTM+H/NC, DrTM+R and FaRM use one-sided WRITEs into the
   backups' log regions — un-armed, as one doorbell batch — and FaSST
   uses RPCs. No epoch stamp: a fenced transaction must finish its
   replication across a bump. *)
let append t decision (shard, backup, seq_ops) ~bytes () =
  Control.append_log t.ctl ~node:backup t.nodes.(backup).log ~bytes ~shard
    ~ops:seq_ops decision

let record_b (_, _, seq_ops) = Wire.log_record_b ~ops:seq_ops

let fasst_log t ~src decision ((_, backup, _) as target) =
  let bytes = record_b target in
  match
    rpc t ~src ~dst:backup ~req_bytes:bytes ~resp_bytes:small_resp_b
      ~handler_ns:t.hw.host_rpc_ns
      (append t decision target ~bytes)
  with
  | `Ok () -> true
  | `Down -> false

let armed_log t ~src decision ((_, backup, _) as target) =
  let bytes = record_b target in
  match
    one_sided_t t ~src ~dst:backup Rdma.Write ~bytes
      ~at_target:(append t decision target ~bytes)
  with
  | `Ok () -> true
  | `Down -> false

let rec log_verbs t decision = function
  | [] -> []
  | ((_, backup, _) as target) :: rest ->
      let bytes = record_b target in
      (backup, Rdma.Write, bytes, append t decision target ~bytes)
      :: log_verbs t decision rest

let log_phase t ~src seq_ops_by_shard decision =
  let targets = Control.log_targets t.ctl seq_ops_by_shard in
  match t.flavor with
  | Fasst ->
      Control.replicate t.ctl ~src targets ~send:(fasst_log t ~src decision)
  | _ when t.p.armed ->
      Control.replicate t.ctl ~src targets ~send:(armed_log t ~src decision)
  | _ -> ignore (one_sided_many t ~src (log_verbs t decision targets))

(* A primary that crashed after the (decided) LOG is skipped: its locks
   and memory died with it, and the committed values reach the shard's
   survivors through their backup logs before promotion. *)
let rec live_shards t = function
  | [] -> []
  | ((shard, _) as s) :: rest ->
      if t.ctl.crashed.(primary_of t ~shard) then begin
        Xenic_stats.Counter.incr (counters t) "commit_to_dead_primary";
        live_shards t rest
      end
      else s :: live_shards t rest

let rec install t ~node = function
  | [] -> ()
  | (op, seq) :: rest ->
      Storage.write t.ctl.storage.(node) op ~seq;
      install t ~node rest

(* Unlock the keys of [lock_versions] on [shard], in lock order. *)
let rec unlock_shard t ~node ~owner shard = function
  | [] -> ()
  | (k, _) :: rest ->
      if Keyspace.shard k = shard then unlock t ~node k ~owner;
      unlock_shard t ~node ~owner shard rest

(* DrTM+R's COMMIT: one WRITE of value, version and lock word per
   key. *)
let rec commit_writes t ~owner ~primary seq_ops tail =
  match seq_ops with
  | [] -> tail
  | (op, seq) :: rest ->
      ( primary,
        Rdma.Write,
        Op.bytes op + 16,
        fun () ->
          Storage.write t.ctl.storage.(primary) op ~seq;
          unlock t ~node:primary (Op.key op) ~owner )
      :: commit_writes t ~owner ~primary rest tail

let rec commit_verbs t ~owner = function
  | [] -> []
  | (shard, seq_ops) :: rest ->
      let primary = primary_of t ~shard in
      commit_writes t ~owner ~primary seq_ops (commit_verbs t ~owner rest)

(* The others' COMMIT RPC: install the shard's writes, then release its
   locks. *)
let commit_shard t a lock_versions (shard, seq_ops) () =
  let primary = primary_of t ~shard and owner = a.Control.owner in
  ignore
    (rpc t ~src:a.coord ~dst:primary ~req_bytes:(Wire.write_ops_b ~ops:seq_ops)
       ~resp_bytes:small_resp_b
       ~handler_ns:
         (t.hw.host_rpc_ns
         +. (float_of_int (List.length seq_ops) *. t.hw.host_op_ns))
       (fun () ->
         install t ~node:primary seq_ops;
         unlock_shard t ~node:primary ~owner shard lock_versions))

(* COMMIT: apply new values at primaries, bump versions, release locks.
   DrTM+R writes value+version+lock in a single WRITE per key; the
   others use a per-shard RPC. *)
let commit_phase t a seq_ops_by_shard lock_versions =
  let seq_ops_by_shard =
    if t.p.armed then live_shards t seq_ops_by_shard else seq_ops_by_shard
  in
  match t.flavor with
  | Drtmr ->
      ignore
        (one_sided_many t ~src:a.Control.coord
           (commit_verbs t ~owner:a.owner seq_ops_by_shard))
  | _ ->
      ignore
        (Process.parallel t.ctl.engine
           (List.map (commit_shard t a lock_versions) seq_ops_by_shard))

(* ------------------------------------------------------------------ *)
(* Transaction driver *)

let rec read_values_at t ~node = function
  | [] -> []
  | k :: keys -> (
      match obj_read t ~node k with
      | Some (v, seq) -> (k, Some v, seq) :: read_values_at t ~node keys
      | None -> (k, None, 0) :: read_values_at t ~node keys)

(* FaSST's execute RPC for [shard]: lock its write-set keys and read its
   read-set keys. *)
let fasst_shard t a ~epoch0 ~reads ~locks shard () =
  let primary = primary_of t ~shard and owner = a.Control.owner in
  let s_reads = shard_keys shard reads and s_locks = shard_keys shard locks in
  let r =
    rpc t ~epoch0 ~src:a.coord ~dst:primary
      ~req_bytes:
        (Wire.execute_req_b ~n_reads:(List.length s_reads)
           ~n_locks:(List.length s_locks) ~state_bytes:0)
      ~resp_bytes:Types.execute_resp_b
      ~handler_ns:
        (t.hw.host_rpc_ns
        +. float_of_int (List.length s_reads + List.length s_locks)
           *. t.hw.host_op_ns)
      (fun () ->
        match lock_at t ~primary ~owner [] s_locks with
        | None -> `Fail
        | Some lockv -> `Ok (lockv, read_values_at t ~node:primary s_reads))
  in
  match r with
  | `Down -> (shard, `Down)
  | `Ok `Fail -> (shard, `Fail)
  | `Ok (`Ok entries) -> (shard, `Ok entries)

(* FaSST's consolidated execute: one RPC per shard locks that shard's
   write-set keys AND reads its read-set keys (§2.2.2). *)
let fasst_execute t a ~epoch0 ~reads ~locks =
  let shards =
    List.sort_uniq compare (List.map Keyspace.shard (reads @ locks))
  in
  gather_locks t a
    (Process.parallel t.ctl.engine
       (List.map (fasst_shard t a ~epoch0 ~reads ~locks) shards))

(* The execution-read version of [k]; [Not_found] if it was not read. *)
let rec read_version k = function
  | [] -> raise Not_found
  | (k', _, seq) :: rest -> if k' = k then seq else read_version k rest

(* Lock-time versions must match the execution-read versions for keys
   both read and written, or the value in hand is stale. *)
let rec locks_match reads = function
  | [] -> true
  | (k, lock_seq) :: rest ->
      (match read_version k reads with
      | seq -> seq = lock_seq
      | exception Not_found -> true)
      && locks_match reads rest

(* The validation checks: each key of [keys] read at execution, with its
   read version. *)
let rec checks_of reads = function
  | [] -> []
  | k :: keys -> (
      match read_version k reads with
      | seq -> (k, seq) :: checks_of reads keys
      | exception Not_found -> checks_of reads keys)

let commit_and_release t a lock_versions seq_ops seq_ops_by_shard =
  commit_phase t a seq_ops_by_shard lock_versions;
  (* Release locks on keys that were locked but not written (DrTM+R
     read-set locks). *)
  match Types.unwritten fst seq_ops lock_versions with
  | [] -> ()
  | residual -> release_keys t a residual

let rec attempt t a ~epoch0 (txn : Types.t) : Control.outcome =
  let src = a.Control.coord in
  (* DrTM+R locks every accessed key; the others lock only writes. *)
  let lock_keys =
    match t.flavor with
    | Drtmr -> List.sort_uniq compare (txn.write_set @ txn.read_set)
    | _ -> txn.write_set
  in
  (* DrTM+H's execution phase retrieves every read-set object with
     one-sided READs before locking; lock-time versions are then
     cross-checked against the read versions. *)
  let exec_reads_r =
    match t.flavor with
    | Drtmh | Drtmh_nc | Farm -> exec_reads t ~src txn.read_set
    | Fasst | Drtmr -> `Ok []
  in
  match exec_reads_r with
  | `Down ->
      (* No locks are held yet: a dead primary just fails the attempt. *)
      `Retry Metrics.Timeout
  | `Ok exec_reads -> (
      (* Lock versions, the execution reads, and the values DrTM+R READs
         after locking. *)
      let lock_result =
        match t.flavor with
        | Fasst -> (
            match
              fasst_execute t a ~epoch0 ~reads:txn.read_set
                ~locks:txn.write_set
            with
            | `Ok (lockv, reads) -> `Ok (lockv, reads, [])
            | (`Fail | `Down) as r -> r)
        | _ -> (
            match lock_phase t a ~epoch0 lock_keys with
            | `Ok (lockv, fetched) -> `Ok (lockv, exec_reads, fetched)
            | (`Fail | `Down) as r -> r)
      in
      match lock_result with
      | `Fail -> `Aborted Metrics.Lock_conflict
      | `Down ->
          (* A `Down shard's lock request may still have taken its locks
             at a live primary after the coordinator stopped listening
             (the response was dropped at an epoch bump). Release the
             whole requested footprint — unlock is owner-guarded, so
             releasing a lock never taken is a no-op. *)
          release_keys t a lock_keys;
          `Retry Metrics.Timeout
      | `Ok (lock_versions, read_results, fetched) -> (
          let abort_all () = release_keys t a (List.map fst lock_versions) in
          if not (locks_match read_results lock_versions) then begin
            Xenic_stats.Counter.incr (counters t) "lock_version_conflicts";
            abort_all ();
            `Aborted Metrics.Validation_failure
          end
          else
            (* DrTM+R's post-lock READs are its reads. *)
            let values = read_results @ fetched in
            (* Execution at the coordinator host. A multi-shot More
               releases the locks and replays the transaction with the
               extended read/write sets (an extra protocol round, as an
               RPC system would issue). *)
            Control.enter t.ctl a Metrics.Exec_fn;
            Resource.use t.nodes.(src).host txn.host_exec_ns;
            match txn.exec (Types.view_of values) with
            | Types.More { read; lock } ->
                abort_all ();
                if List.length txn.read_set > 256 then
                  (* Footprint growth the lock acquisition could not
                     keep up with (same taxonomy as Xenic's round-budget
                     overflow). *)
                  `Aborted Metrics.Lock_conflict
                else begin
                  (* The replay runs the same try again with a fresh
                     owner token. *)
                  Control.replay t.ctl a;
                  attempt t a ~epoch0
                    {
                      txn with
                      Types.read_set =
                        List.sort_uniq compare (txn.read_set @ read);
                      write_set = List.sort_uniq compare (txn.write_set @ lock);
                    }
                end
            | Types.Done ops ->
                Control.finish t.ctl a ~epoch0 ~values ~lock_versions
                  ~checks:(checks_of read_results (Types.validate_set txn))
                  ~validate:(validate_phase t a ~epoch0)
                  ~release:abort_all ~log:(log_phase t ~src)
                  ~commit:(commit_and_release t a lock_versions)
                  ops))

let run_txn t ~node (txn : Types.t) =
  Control.run_txn t.ctl ~node (fun a -> attempt t a ~epoch0:t.ctl.epoch txn)

(* -- Reconfiguration ------------------------------------------------ *)

(* Flap rejoin is not modeled for the RDMA baselines: their lock words
   live in host memory (they survive a NIC reset, unlike Xenic's NIC
   SRAM), so a sound rejoin would need lock reconciliation in the
   chained tables on top of state transfer. A recovery request is
   therefore always refused — counted, never raised — and the node
   stays out under the fail-stop discipline; the scenario validator
   rejects flap scenarios on these stacks. *)
let recover_node t ~node =
  if t.ctl.crashed.(node) then Control.refuse_rejoin t.ctl ~node

(* -- Gray-failure hooks (scenario injection) ------------------------ *)

let set_nic_slowdown t ~node f = Rdma.set_slowdown t.rdma ~node f

let degrade_nic_cores t ~node ~n ~dur_ns =
  (* The RDMA NIC model has one processing unit per node, not a core
     pool: degrading [n >= 1] "cores" stalls that unit for the
     duration. *)
  if n > 0 then Rdma.degrade_unit t.rdma ~node ~dur_ns
