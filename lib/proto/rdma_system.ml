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
      (* > 0: windowed conservative-PDES topology over this many node
         partitions, with metrics and the oracle feed sharded per
         partition (same contract as [Xenic_system.params.partitions]:
         un-armed runs only, no membership/trace). 0: single-heap. *)
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
  host : Resource.t;  (* app threads + RPC handlers *)
  workers : Resource.t;
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

let flavor t = t.flavor

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
   the caller polls for the completion, a callback after the reply's
   delivery. Each message carries its sender's attribution context. A
   stale request is refused in place, with no wire hop. *)
let transport ctl (hw : Xenic_params.Hw.t) rdma =
  {
    Control.depart =
      (fun ~src:_ ~dst:_ ~bytes:_ ->
        Xenic_stats.Counter.incr (Control.counters ctl) "rpcs");
    send =
      (fun ~src ~dst ~bytes handler ->
        Rdma.rpc_send rdma ~src ~dst ~bytes
          (Control.request ~bytes (fun () ->
               Rdma.rpc_recv_cost rdma ~node:dst;
               handler ())));
    back =
      (fun ~src ~dst ~bytes k ->
        Rdma.rpc_send rdma ~src:dst ~dst:src ~bytes
          (Control.reply ~bytes (fun () ->
               Engine.after ctl.Control.engine hw.rdma_completion_poll_ns k)));
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

let one_sided_many t ~src verbs =
  let remote, local =
    List.partition (fun (dst, _, _, _) -> dst <> src) verbs
  in
  let local_results =
    List.map
      (fun (_, _, _, at_target) ->
        Process.sleep t.ctl.engine t.hw.host_op_ns;
        at_target ())
      local
  in
  Xenic_stats.Counter.add (counters t) "verbs" (List.length remote);
  let remote_results =
    if remote = [] then [] else Rdma.one_sided_many t.rdma ~src remote
  in
  local_results @ remote_results

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
let one_sided_many_t t ~src verbs =
  if List.exists (fun (dst, _, _, _) -> down t ~src ~dst) verbs then
    Control.give_up t.ctl
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
          workers =
            Resource.create engine
              ~name:(Printf.sprintf "rwrk%d" id)
              ~servers:p.worker_threads;
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
           ( Printf.sprintf "node%d worker pool" n.id,
             fun () -> float_of_int (Resource.in_use n.workers) );
         ])

(* Every contended resource, labeled for the profiler. Host-pool, NIC
   and fabric names are already node-unique. *)
let resources t =
  let pools =
    Array.to_list t.nodes
    |> List.concat_map (fun n ->
           [ (Resource.name n.host, n.host); (Resource.name n.workers, n.workers) ])
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

(* One-sided execution read: with the address cache the coordinator
   reads the object's exact location; without it (NC) it walks the
   chained buckets, one READ of B slots per bucket. *)
let one_sided_read t ~src k =
  let shard = Keyspace.shard k in
  let primary = primary_of t ~shard in
  match t.flavor with
  | Farm | Drtmh_nc ->
      (* FaRM: one READ of the H-slot neighborhood; overflow keys need a
         second roundtrip for the chain (§2.2.2, Table 2). NC: one READ
         of B slots per chained bucket walked. *)
      let cost, slots =
        match (Storage.shard_store t.ctl.storage.(primary) ~shard).hash with
        | Storage.Hopscotch h -> (Xenic_store.Hopscotch.lookup_cost h k, 8)
        | Storage.Chained c -> (Xenic_store.Chained.lookup_cost c k, bucket_b)
        | Storage.Robinhood _ -> invalid_arg "Rdma_system: Robinhood store"
      in
      let reads = match cost with Some (_, rts) -> rts | None -> 1 in
      let result = ref None in
      for hop = 1 to reads do
        let at_target () =
          if hop = reads then result := obj_read t ~node:primary k
        in
        one_sided t ~src ~dst:primary Rdma.Read
          ~bytes:(slots * Xenic_store.Kv.slot_bytes ~value_b:64)
          ~at_target
      done;
      Xenic_stats.Counter.add (counters t) "read_roundtrips" reads;
      !result
  | _ ->
      let r =
        one_sided t ~src ~dst:primary Rdma.Read
          ~bytes:(value_slot_b t ~node:primary k)
          ~at_target:(fun () -> obj_read t ~node:primary k)
      in
      Xenic_stats.Counter.incr (counters t) "read_roundtrips";
      r

let one_sided_read_t t ~src k =
  if down t ~src ~dst:(primary_of t ~shard:(Keyspace.shard k)) then
    Control.give_up t.ctl
  else `Ok (one_sided_read t ~src k)

(* ------------------------------------------------------------------ *)
(* Phase implementations *)

(* DrTM+R's one-sided unlock: one WRITE per key. *)
let unlock_verbs t ~primary ~owner keys =
  List.map
    (fun k ->
      (primary, Rdma.Write, 16, fun () -> unlock t ~node:primary k ~owner))
    keys

(* Release [keys], all of [shard], at its current primary. Locks at a
   crashed primary died with its memory. No epoch stamp: an abort must
   land across a bump (unlock is owner-guarded, so it is safe in any
   configuration). *)
let release_shard t a (shard, keys) =
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
             ~resp_bytes:(fun _ -> Wire.small_resp_b)
             ~handler_ns:t.hw.host_rpc_ns
             (fun () ->
               List.iter (fun k -> unlock t ~node:primary k ~owner) keys))

(* Lock-acquire RPC handler at [primary]: lock [keys] in order, with
   each key's version at lock time; on a conflict release the locks
   already taken and return [None]. *)
let lock_at t ~primary ~owner keys =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | k :: rest ->
        if try_lock t ~node:primary k ~owner then
          let seq =
            match obj_read t ~node:primary k with Some (_, s) -> s | None -> 0
          in
          go ((k, seq) :: acc) rest
        else begin
          List.iter (fun (k', _) -> unlock t ~node:primary k' ~owner) acc;
          None
        end
  in
  go [] keys

(* Gather per-shard lock results [(shard, `Down | `Fail | `Ok (lock
   versions, values))]. Any `Down or `Fail releases the locks taken at
   the other shards; otherwise the lock versions and values of every
   shard, in result order. *)
let gather_locks t a results =
  let down = List.exists (fun (_, r) -> r = `Down) results in
  if down || List.exists (fun (_, r) -> r = `Fail) results then begin
    if not down then
      Xenic_stats.Counter.incr (counters t) "exec_lock_conflicts";
    List.iter
      (fun (shard, r) ->
        match r with
        | `Ok (lockv, _) when lockv <> [] ->
            release_shard t a (shard, List.map fst lockv)
        | _ -> ())
      results;
    if down then `Down else `Fail
  end
  else
    `Ok
      ( List.concat_map
          (fun (_, r) -> match r with `Ok (lv, _) -> lv | _ -> [])
          results,
        List.concat_map
          (fun (_, r) -> match r with `Ok (_, vs) -> vs | _ -> [])
          results )

(* Lock the write set. DrTM+H, DrTM+H (NC) and FaRM lock via one RPC
   per shard; DrTM+R CAS-locks each key one-sided and then READs the
   locked values. Returns the lock versions and DrTM+R's values read,
   or `Fail / `Down with every acquired lock already released. *)
let lock_phase t a ~epoch0 (write_keys : Keyspace.t list) =
  let src = a.Control.coord and owner = a.owner in
  let by_shard = ref [] in
  List.iter
    (fun k ->
      let s = Keyspace.shard k in
      by_shard :=
        (s, k :: (try List.assoc s !by_shard with Not_found -> []))
        :: List.remove_assoc s !by_shard)
    write_keys;
  let lock_shard (shard, keys) () =
    let primary = primary_of t ~shard in
    match t.flavor with
    | Drtmr -> (
        (* One-sided CAS per key, then READ the locked values. *)
        match
          one_sided_many_t t ~src
            (List.map
               (fun k ->
                 ( primary,
                   Rdma.Cas,
                   16,
                   fun () ->
                     if try_lock t ~node:primary k ~owner then `Got k else `Held ))
               keys)
        with
        | `Down -> (shard, `Down)
        | `Ok cas_results -> (
            let acquired =
              List.filter_map
                (function `Got k -> Some k | `Held -> None)
                cas_results
            in
            if List.length acquired <> List.length keys then begin
              if acquired <> [] then
                ignore
                  (one_sided_many_t t ~src
                     (unlock_verbs t ~primary ~owner acquired));
              (shard, `Fail)
            end
            else
              match
                one_sided_many_t t ~src
                  (List.map
                     (fun k ->
                       ( primary,
                         Rdma.Read,
                         value_slot_b t ~node:primary k,
                         fun () -> (k, obj_read t ~node:primary k) ))
                     keys)
              with
              | `Down -> (shard, `Down)
              | `Ok reads ->
                  let entries =
                    List.map
                      (fun (k, r) ->
                        match r with
                        | Some (v, seq) -> (k, Some v, seq)
                        | None -> (k, None, 0))
                      reads
                  in
                  let lockv = List.map (fun (k, _, seq) -> (k, seq)) entries in
                  (shard, `Ok (lockv, entries))))
    | _ -> (
        (* Lock RPC: acquires the shard's locks and returns versions
           only — in DrTM+H the object values were already retrieved by
           one-sided execution reads ("retrieve the value, then lock"). *)
        let r =
          rpc t ~epoch0 ~src ~dst:primary
            ~req_bytes:
              (Wire.execute_req_b ~n_reads:0 ~n_locks:(List.length keys)
                 ~state_bytes:0)
            ~resp_bytes:(fun r ->
              match r with
              | None -> Wire.small_resp_b
              | Some lockv -> Wire.small_resp_b + (8 * List.length lockv))
            ~handler_ns:
              (t.hw.host_rpc_ns
              +. (float_of_int (List.length keys) *. t.hw.host_op_ns))
            (fun () -> lock_at t ~primary ~owner keys)
        in
        match r with
        | `Down -> (shard, `Down)
        | `Ok None -> (shard, `Fail)
        | `Ok (Some lockv) -> (shard, `Ok (lockv, [])))
  in
  gather_locks t a
    (Process.parallel t.ctl.engine (List.map lock_shard !by_shard))

(* Validation: DrTM+H/NC and FaRM re-read version words one-sided;
   FaSST uses a per-shard RPC. DrTM+R locks every key it reads, so it
   never has checks to validate. An [`Invalid] verdict counts
   [validate_conflicts]. *)
let validate_phase t a ~epoch0 checks =
  let src = a.Control.coord and owner = a.owner in
  let verdict ok =
    if ok then `Valid
    else begin
      Xenic_stats.Counter.incr (counters t) "validate_conflicts";
      `Invalid
    end
  in
  match t.flavor with
  | Fasst ->
      let shards = Types.group_by_shard fst checks in
      let results =
        Process.parallel t.ctl.engine
          (List.map
             (fun (shard, cs) () ->
               let primary = primary_of t ~shard in
               rpc t ~epoch0 ~src ~dst:primary
                 ~req_bytes:(Wire.validate_req_b ~n_checks:(List.length cs))
                 ~resp_bytes:(fun _ -> Wire.small_resp_b)
                 ~handler_ns:
                   (t.hw.host_rpc_ns
                   +. (float_of_int (List.length cs) *. t.hw.host_op_ns))
                 (fun () ->
                   List.for_all
                     (fun (k, expected) ->
                       (not (locked_by_other t ~node:primary k ~owner))
                       &&
                       let current =
                         match obj_read t ~node:primary k with
                         | Some (_, s) -> s
                         | None -> 0
                       in
                       current = expected)
                     cs))
             shards)
      in
      if List.exists (fun r -> r = `Down) results then `Down
      else verdict (List.for_all (fun r -> r = `Ok true) results)
  | Drtmh | Drtmh_nc | Drtmr | Farm -> (
      match
        one_sided_many_t t ~src
          (List.map
             (fun (k, expected) ->
               let primary = primary_of t ~shard:(Keyspace.shard k) in
               ( primary,
                 Rdma.Read,
                 Xenic_store.Kv.slot_header_b,
                 fun () ->
                   (not (locked_by_other t ~node:primary k ~owner))
                   &&
                   let current =
                     match obj_read t ~node:primary k with
                     | Some (_, s) -> s
                     | None -> 0
                   in
                   current = expected ))
             checks)
      with
      | `Down -> `Down
      | `Ok results -> verdict (List.for_all Fun.id results))

(* LOG: replicate the write set to every backup, each record carrying
   [decision]. DrTM+H/NC, DrTM+R and FaRM use one-sided WRITEs into the
   backups' log regions — un-armed, as one doorbell batch — and FaSST
   uses RPCs. No epoch stamp: a fenced transaction must finish its
   replication across a bump. *)
let log_phase t ~src seq_ops_by_shard decision =
  let record_b (_, _, seq_ops) = Wire.log_record_b ~ops:(List.map fst seq_ops) in
  let append (shard, backup, seq_ops) ~bytes () =
    Control.append_log t.ctl ~node:backup t.nodes.(backup).log ~bytes ~shard
      ~ops:seq_ops decision
  in
  let targets = Control.log_targets t.ctl seq_ops_by_shard in
  match t.flavor with
  | Fasst ->
      Control.replicate t.ctl ~src targets
        ~send:(fun ((_, backup, _) as target) ->
          let bytes = record_b target in
          match
            rpc t ~src ~dst:backup ~req_bytes:bytes
              ~resp_bytes:(fun _ -> Wire.small_resp_b)
              ~handler_ns:t.hw.host_rpc_ns (append target ~bytes)
          with
          | `Ok () -> true
          | `Down -> false)
  | _ when t.p.armed ->
      Control.replicate t.ctl ~src targets
        ~send:(fun ((_, backup, _) as target) ->
          let bytes = record_b target in
          match
            one_sided_t t ~src ~dst:backup Rdma.Write ~bytes
              ~at_target:(append target ~bytes)
          with
          | `Ok () -> true
          | `Down -> false)
  | _ ->
      ignore
        (one_sided_many t ~src
           (List.map
              (fun ((_, backup, _) as target) ->
                let bytes = record_b target in
                (backup, Rdma.Write, bytes, append target ~bytes))
              targets))

(* COMMIT: apply new values at primaries, bump versions, release locks.
   DrTM+R writes value+version+lock in a single WRITE per key; the
   others use a per-shard RPC. *)
let commit_phase t a seq_ops_by_shard locked_by_shard =
  let src = a.Control.coord and owner = a.owner in
  (* A primary that crashed after the (decided) LOG is skipped: its
     locks and memory died with it, and the committed values reach the
     shard's survivors through their backup logs before promotion. *)
  let live (shard, _) =
    let primary = primary_of t ~shard in
    if t.ctl.crashed.(primary) then begin
      Xenic_stats.Counter.incr (counters t) "commit_to_dead_primary";
      false
    end
    else true
  in
  let seq_ops_by_shard =
    if t.p.armed then List.filter live seq_ops_by_shard else seq_ops_by_shard
  in
  match t.flavor with
  | Drtmr ->
      ignore
        (one_sided_many t ~src
           (List.concat_map
              (fun (shard, seq_ops) ->
                let primary = primary_of t ~shard in
                List.map
                  (fun (op, seq) ->
                    ( primary,
                      Rdma.Write,
                      Op.bytes op + 16,
                      fun () ->
                        Storage.write t.ctl.storage.(primary) op ~seq;
                        unlock t ~node:primary (Op.key op) ~owner ))
                  seq_ops)
              seq_ops_by_shard))
  | _ ->
      ignore
        (Process.parallel t.ctl.engine
           (List.map
              (fun (shard, seq_ops) () ->
                let primary = primary_of t ~shard in
                let locked =
                  Option.value ~default:[] (List.assoc_opt shard locked_by_shard)
                in
                let bytes = Wire.write_ops_b ~ops:(List.map fst seq_ops) in
                ignore
                  (rpc t ~src ~dst:primary ~req_bytes:bytes
                     ~resp_bytes:(fun _ -> Wire.small_resp_b)
                     ~handler_ns:
                       (t.hw.host_rpc_ns
                       +. float_of_int (List.length seq_ops) *. t.hw.host_op_ns)
                     (fun () ->
                       List.iter
                         (fun (op, seq) ->
                           Storage.write t.ctl.storage.(primary) op ~seq)
                         seq_ops;
                       List.iter (fun k -> unlock t ~node:primary k ~owner) locked)))
              seq_ops_by_shard))

(* ------------------------------------------------------------------ *)
(* Transaction driver *)

(* FaSST's consolidated execute: one RPC per shard locks that shard's
   write-set keys AND reads its read-set keys (§2.2.2). *)
let fasst_execute t a ~epoch0 ~reads ~locks =
  let src = a.Control.coord and owner = a.owner in
  let shards =
    List.sort_uniq compare (List.map Keyspace.shard (reads @ locks))
  in
  let one shard () =
    let primary = primary_of t ~shard in
    let s_reads = List.filter (fun k -> Keyspace.shard k = shard) reads in
    let s_locks = List.filter (fun k -> Keyspace.shard k = shard) locks in
    let r =
      rpc t ~epoch0 ~src ~dst:primary
        ~req_bytes:
          (Wire.execute_req_b ~n_reads:(List.length s_reads)
             ~n_locks:(List.length s_locks) ~state_bytes:0)
        ~resp_bytes:(fun r ->
          match r with
          | `Fail -> Wire.small_resp_b
          | `Ok (_, values) ->
              Wire.execute_resp_b
                ~value_bytes:
                  (List.map
                     (fun (_, v, _) ->
                       match v with Some b -> Bytes.length b | None -> 0)
                     values))
        ~handler_ns:
          (t.hw.host_rpc_ns
          +. float_of_int (List.length s_reads + List.length s_locks)
             *. t.hw.host_op_ns)
        (fun () ->
          match lock_at t ~primary ~owner s_locks with
          | None -> `Fail
          | Some lockv ->
              let values =
                List.map
                  (fun k ->
                    match obj_read t ~node:primary k with
                    | Some (v, seq) -> (k, Some v, seq)
                    | None -> (k, None, 0))
                  s_reads
              in
              `Ok (lockv, values))
    in
    match r with
    | `Down -> (shard, `Down)
    | `Ok `Fail -> (shard, `Fail)
    | `Ok (`Ok entries) -> (shard, `Ok entries)
  in
  gather_locks t a (Process.parallel t.ctl.engine (List.map one shards))

let rec attempt t a ~epoch0 (txn : Types.t) : Control.outcome =
  let src = a.Control.coord in
  Attrib.set_phase "execute";
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
    | Drtmh | Drtmh_nc | Farm ->
        Process.parallel t.ctl.engine
          (List.map
             (fun k () ->
               match one_sided_read_t t ~src k with
               | `Down -> `Down
               | `Ok (Some (v, seq)) -> `Ok (k, Some v, seq)
               | `Ok None -> `Ok (k, None, 0))
             txn.read_set)
    | Fasst | Drtmr -> []
  in
  if List.exists (fun r -> r = `Down) exec_reads_r then
    (* No locks are held yet: a dead primary just fails the attempt. *)
    `Retry Metrics.Timeout
  else
  let exec_reads =
    List.filter_map (function `Ok e -> Some e | `Down -> None) exec_reads_r
  in
  (* Lock versions, the execution reads, and the values DrTM+R READs
     after locking. *)
  let lock_result =
    match t.flavor with
    | Fasst -> (
        match
          fasst_execute t a ~epoch0 ~reads:txn.read_set ~locks:txn.write_set
        with
        | `Ok (lockv, reads) -> `Ok (lockv, reads, [])
        | (`Fail | `Down) as r -> r)
    | _ -> (
        match lock_phase t a ~epoch0 lock_keys with
        | `Ok (lockv, fetched) -> `Ok (lockv, exec_reads, fetched)
        | (`Fail | `Down) as r -> r)
  in
  (* Within a shard, unlocks go out in reverse order. *)
  let release_keys keys =
    List.iter (release_shard t a) (Types.group_by_shard Fun.id (List.rev keys))
  in
  match lock_result with
  | `Fail -> `Aborted Metrics.Lock_conflict
  | `Down ->
      (* A `Down shard's lock request may still have taken its locks at
         a live primary after the coordinator stopped listening (the
         response was dropped at an epoch bump). Release the whole
         requested footprint — unlock is owner-guarded, so releasing a
         lock never taken is a no-op. *)
      release_keys lock_keys;
      `Retry Metrics.Timeout
  | `Ok (lock_versions, read_results, fetched) -> (
      Control.mark t.ctl a "execute";
      let abort_all () = release_keys (List.map fst lock_versions) in
      (* Lock-time versions must match the execution-read versions for
         keys both read and written, or the value in hand is stale. *)
      let lock_matches_read =
        List.for_all
          (fun (k, lock_seq) ->
            match List.find_opt (fun (k', _, _) -> k' = k) read_results with
            | Some (_, _, read_seq) -> read_seq = lock_seq
            | None -> true)
          lock_versions
      in
      if not lock_matches_read then begin
        Xenic_stats.Counter.incr (counters t) "lock_version_conflicts";
        abort_all ();
        `Aborted Metrics.Validation_failure
      end
      else
      (* DrTM+R's post-lock READs are its reads. *)
      let values = read_results @ fetched in
      (* Execution at the coordinator host. A multi-shot More releases
         the locks and replays the transaction with the extended
         read/write sets (an extra protocol round, as an RPC system
         would issue). *)
      Attrib.set_phase "exec-fn";
      Resource.use t.nodes.(src).host txn.host_exec_ns;
      match txn.exec (Types.view_of values) with
      | Types.More { read; lock } ->
          abort_all ();
          if List.length txn.read_set > 256 then
            (* Footprint growth the lock acquisition could not keep up
               with (same taxonomy as Xenic's round-budget overflow). *)
            `Aborted Metrics.Lock_conflict
          else begin
            (* The replay is a fresh attempt of the same transaction. *)
            Control.draw t.ctl a;
            attempt t a ~epoch0
              {
                txn with
                Types.read_set = List.sort_uniq compare (txn.read_set @ read);
                write_set = List.sort_uniq compare (txn.write_set @ lock);
              }
          end
      | Types.Done ops ->
      Control.mark t.ctl a "exec-fn";
      (* Validate read-only keys. *)
      let checks =
        List.filter_map
          (fun k ->
            match List.find_opt (fun (k', _, _) -> k' = k) read_results with
            | Some (_, _, seq) -> Some (k, seq)
            | None -> None)
          (Types.validate_set txn)
      in
      Control.finish t.ctl a ~epoch0 ~values ~lock_versions ~checks
        ~validate:(validate_phase t a ~epoch0)
        ~release:abort_all ~log:(log_phase t ~src)
        ~commit:(fun seq_ops seq_ops_by_shard ->
          let locked_by_shard =
            List.map
              (fun (shard, _) ->
                ( shard,
                  List.filter_map
                    (fun (k, _) ->
                      if Keyspace.shard k = shard then Some k else None)
                    lock_versions ))
              seq_ops_by_shard
          in
          commit_phase t a seq_ops_by_shard locked_by_shard;
          (* Release locks on keys that were locked but not written
             (DrTM+R read-set locks). *)
          let written = List.map (fun (op, _) -> Op.key op) seq_ops in
          let residual =
            List.filter_map
              (fun (k, _) -> if List.mem k written then None else Some k)
              lock_versions
          in
          if residual <> [] then release_keys residual)
        ops)

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
