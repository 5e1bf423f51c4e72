open Xenic_sim
open Xenic_cluster
open Xenic_nicdev

type flavor = Drtmh | Drtmh_nc | Fasst | Drtmr | Farm

let flavor_name = function
  | Drtmh -> "DrTM+H"
  | Drtmh_nc -> "DrTM+H (NC)"
  | Fasst -> "FaSST"
  | Drtmr -> "DrTM+R"
  | Farm -> "FaRM"

type params = {
  host_threads : int;
  worker_threads : int;
  buckets : int;
  bucket_b : int;
  log_capacity_b : int;
  btree_op_ns : float;
  req_timeout_ns : float option;
  retry_backoff_ns : float;
  max_retries : int;
  partitions : int;
      (* > 0: windowed conservative-PDES topology over this many node
         partitions, with metrics and the oracle feed sharded per
         partition (same contract as [Xenic_system.params.partitions]:
         un-armed runs only, no membership/trace). 0: legacy. *)
}

let default_params =
  {
    host_threads = 24;
    worker_threads = 4;
    buckets = 4096;
    bucket_b = 8;
    log_capacity_b = 4 * 1024 * 1024;
    btree_op_ns = 300.0;
    req_timeout_ns = None;
    retry_backoff_ns = 30_000.0;
    max_retries = 10;
    partitions = 0;
  }

type msg = { bytes : int; deliver : unit -> unit }

(* Commit decision shared between a transaction's log records (same
   scheme as [Xenic_system]): backups apply only decided-commit
   records, so a coordinator crash between LOG and COMMIT never
   diverges replicas. Legacy mode creates records already decided. *)
type decision = Dpending | Dcommit | Dabort

type log_record = { lr_ops : (Op.t * int) list; lr_decision : decision ref }

type shard_store = {
  hash : bytes Xenic_store.Chained.t;  (* DrTM+H / FaSST / DrTM+R objects *)
  hops : (int * bytes) Xenic_store.Hopscotch.t option;
      (* FaRM objects, stored as (version, value) in an H=8 Hopscotch
         table (§2.2.2) *)
  ordered : bytes Xenic_store.Btree.t;
}

type node = {
  id : int;
  stores : shard_store option array;
  locks : (Keyspace.t, int) Hashtbl.t;  (* key -> owner token *)
  host : Resource.t;  (* app threads + RPC handlers *)
  workers : Resource.t;
  log : log_record Xenic_store.Hostlog.t;
  mutable txn_seq : int;
}

type t = {
  engine : Engine.t;
  hw : Xenic_params.Hw.t;
  cfg : Config.t;
  flavor : flavor;
  p : params;
  fabric : msg Xenic_net.Fabric.t;
  rdma : msg Rdma.t;
  nodes : node array;
  metrics : Metrics.t;
  part_metrics : Metrics.t array;
      (* per-partition metrics shards under a windowed topology; empty
         when [p.partitions = 0] (everything records into [metrics]) *)
  part_oracle : Oracle.t array;
      (* per-partition oracle buffers, flushed by [sync]; empty when
         [p.partitions = 0] *)
  mutable oracle : Oracle.t option;
  primaries : int array;  (* shard -> current primary (routing view) *)
  alive : bool array;  (* routing view: false once declared dead *)
  crashed : bool array;  (* ground truth: true from the crash instant *)
  mutable epoch : int;  (* bumped at every declaration *)
  mutable inflight_commits : int;  (* txns between LOG start and COMMIT *)
  mutable recovery_waiting : int;  (* pending recoveries gating the fence *)
  mutable membership : Membership.t option;
  mutable trace : Trace.t option;
  mutable telemetry : Xenic_telemetry.Telemetry.t option;
}

let engine t = t.engine

let cfg t = t.cfg

let flavor t = t.flavor

(* The metrics object protocol events record into: the partition-local
   shard under a windowed topology, the shared object otherwise. *)
let mx t =
  if Array.length t.part_metrics = 0 then t.metrics
  else t.part_metrics.(Engine.current_partition t.engine)

(* Reported metrics: sharded runs merge the partitions into a fresh
   object in partition-index order (deterministic for a fixed partition
   count, independent of domain count). *)
let metrics t =
  if Array.length t.part_metrics = 0 then t.metrics
  else begin
    let m = Metrics.create () in
    Metrics.merge ~into:m t.metrics;
    Array.iter (fun pm -> Metrics.merge ~into:m pm) t.part_metrics;
    m
  end

let counters t = Metrics.counters (mx t)

let set_trace t tr = t.trace <- tr

let set_telemetry t tel = t.telemetry <- tel

(* Phase/recovery events for the trace (no-ops with tracing off). *)
let trace_instant t ~cat ~name ~pid ~tid args =
  match t.trace with
  | None -> ()
  | Some tr -> Trace.instant tr ~cat ~name ~pid ~tid ~args ()

(* Close one protocol phase: record its latency sample and, when
   tracing, a span on the coordinator's track. Returns the new phase
   start. *)
let phase_mark t ~src ~seq name t_prev =
  let now = Engine.now t.engine in
  Metrics.record_phase (mx t) ~phase:name (now -. t_prev);
  (match t.trace with
  | None -> ()
  | Some tr ->
      Trace.span tr ~cat:"txn" ~name ~pid:src ~tid:seq ~ts:t_prev
        ~dur:(now -. t_prev) ());
  now

let store t ~node ~shard =
  match t.nodes.(node).stores.(shard) with
  | Some s -> s
  | None -> invalid_arg "Rdma_system.store: node does not hold shard"

let armed t = Option.is_some t.p.req_timeout_ns

let primary_of t ~shard = t.primaries.(shard)

(* Live backups of [shard]: its replicas minus the current primary and
   any dead nodes. *)
let backups_of t ~shard =
  List.filter
    (fun n -> n <> t.primaries.(shard) && t.alive.(n))
    (Config.replicas t.cfg ~shard)

(* ------------------------------------------------------------------ *)
(* Host-memory object operations, executed at their linearization point
   (inside RPC handlers or one-sided at_target closures). *)

let obj_read t ~node k =
  let s = store t ~node ~shard:(Keyspace.shard k) in
  if Keyspace.ordered k then
    match Xenic_store.Btree.find s.ordered k with
    | Some v -> Some (v, 0)
    | None -> None
  else
    match s.hops with
    | Some h -> (
        match Xenic_store.Hopscotch.find h k with
        | Some (seq, v) -> Some (v, seq)
        | None -> None)
    | None -> Xenic_store.Chained.find s.hash k

let obj_apply t ~node (op, seq) =
  let k = Op.key op in
  let s = store t ~node ~shard:(Keyspace.shard k) in
  if Keyspace.ordered k then
    match op with
    | Op.Put (_, v) -> Xenic_store.Btree.insert s.ordered k v
    | Op.Delete _ -> ignore (Xenic_store.Btree.delete s.ordered k)
  else
    match s.hops with
    | Some h -> (
        match op with
        | Op.Put (_, v) ->
            let cur_seq =
              match Xenic_store.Hopscotch.find h k with
              | Some (s', _) -> s'
              | None -> -1
            in
            if cur_seq < seq then Xenic_store.Hopscotch.insert h k (seq, v)
        | Op.Delete _ -> ignore (Xenic_store.Hopscotch.delete h k))
    | None -> (
        match op with
        | Op.Put (_, v) -> Xenic_store.Chained.put_newer s.hash k v ~seq
        | Op.Delete _ -> ignore (Xenic_store.Chained.delete s.hash k))

let try_lock t ~node k ~owner =
  let locks = t.nodes.(node).locks in
  match Hashtbl.find_opt locks k with
  | Some o when o <> owner -> false
  | _ ->
      Hashtbl.replace locks k owner;
      true

let unlock t ~node k ~owner =
  let locks = t.nodes.(node).locks in
  match Hashtbl.find_opt locks k with
  | Some o when o = owner -> Hashtbl.remove locks k
  | _ -> ()

let locked_by_other t ~node k ~owner =
  match Hashtbl.find_opt t.nodes.(node).locks k with
  | Some o -> o <> owner
  | None -> false

(* ------------------------------------------------------------------ *)
(* Two-sided RPC path *)

(* Blocking RPC from a coordinator host thread. The handler runs on a
   host thread at the target (after the NIC delivers the receive
   buffer); the response comes back the same way. Local calls
   short-circuit the network but still pay handler compute. *)
let rpc t ~src ~dst ~req_bytes ~resp_bytes ~handler_ns (handler : unit -> 'r) : 'r
    =
  if src = dst then begin
    Resource.use t.nodes.(dst).host handler_ns;
    handler ()
  end
  else begin
    Xenic_stats.Counter.incr (counters t) "rpcs";
    (* Delivery runs in the destination's dispatch loop; [Attrib.preserve]
       carries the caller's attribution context into the handler (and the
       handler's context back into the completion). *)
    Process.suspend (fun resume ->
        Process.spawn t.engine (fun () ->
            Rdma.rpc_send t.rdma ~src ~dst ~bytes:req_bytes
              {
                bytes = req_bytes;
                deliver =
                  Attrib.preserve (fun () ->
                      Rdma.rpc_recv_cost t.rdma ~node:dst;
                      Resource.acquire t.nodes.(dst).host;
                      Process.sleep t.engine handler_ns;
                      let r = handler () in
                      Resource.release t.nodes.(dst).host;
                      Rdma.rpc_send t.rdma ~src:dst ~dst:src
                        ~bytes:(resp_bytes r)
                        {
                          bytes = resp_bytes r;
                          deliver =
                            Attrib.preserve (fun () ->
                                (* Completion handling on the caller side. *)
                                Process.sleep t.engine
                                  t.hw.rdma_completion_poll_ns;
                                resume r);
                        })
              }))
  end

(* One-sided verb against a remote node's host memory. Local accesses
   become plain host-memory operations. *)
let one_sided t ~src ~dst verb ~bytes ~at_target =
  if src = dst then begin
    Process.sleep t.engine t.hw.host_op_ns;
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
        Process.sleep t.engine t.hw.host_op_ns;
        at_target ())
      local
  in
  Xenic_stats.Counter.add (counters t) "verbs" (List.length remote);
  let remote_results =
    if remote = [] then [] else Rdma.one_sided_many t.rdma ~src remote
  in
  local_results @ remote_results

(* ------------------------------------------------------------------ *)
(* Timeout-aware request wrappers (armed mode only; with
   [req_timeout_ns = None] these are the plain operations above).
   [`Down] means the peer did not answer within the deadline or the
   routing epoch moved mid-flight — the caller must treat the peer as
   dead and fail its transaction attempt. *)

let rpc_t t ?epoch0 ~src ~dst ~req_bytes ~resp_bytes ~handler_ns
    (handler : unit -> 'r) : [ `Ok of 'r | `Down ] =
  match t.p.req_timeout_ns with
  | None -> `Ok (rpc t ~src ~dst ~req_bytes ~resp_bytes ~handler_ns handler)
  | Some timeout_ns ->
      if dst <> src && t.crashed.(dst) then begin
        (* Known-crashed target: the request is on the wire for the
           full deadline before the coordinator gives up. *)
        Xenic_stats.Counter.incr (counters t) "req_timeouts";
        Process.sleep t.engine timeout_ns;
        `Down
      end
      else if src = dst then begin
        Resource.use t.nodes.(dst).host handler_ns;
        `Ok (handler ())
      end
      else begin
        Xenic_stats.Counter.incr (counters t) "rpcs";
        let iv = Ivar.create t.engine in
        let settle v = if not (Ivar.is_filled iv) then Ivar.fill iv v in
        let stale () =
          match epoch0 with Some e -> t.epoch <> e | None -> false
        in
        Process.spawn t.engine (fun () ->
            Rdma.rpc_send t.rdma ~src ~dst ~bytes:req_bytes
              {
                bytes = req_bytes;
                deliver =
                  Attrib.preserve (fun () ->
                      Rdma.rpc_recv_cost t.rdma ~node:dst;
                      if stale () then begin
                        Xenic_stats.Counter.incr (counters t)
                          "stale_epoch_rejects";
                        settle `Stale
                      end
                      else begin
                        Resource.acquire t.nodes.(dst).host;
                        Process.sleep t.engine handler_ns;
                        let r = handler () in
                        Resource.release t.nodes.(dst).host;
                        Rdma.rpc_send t.rdma ~src:dst ~dst:src
                          ~bytes:(resp_bytes r)
                          {
                            bytes = resp_bytes r;
                            deliver =
                              Attrib.preserve (fun () ->
                                  Process.sleep t.engine
                                    t.hw.rdma_completion_poll_ns;
                                  if stale () then begin
                                    Xenic_stats.Counter.incr (counters t)
                                      "stale_epoch_drops";
                                    settle `Stale
                                  end
                                  else settle (`Resp r));
                          }
                      end);
              });
        match Ivar.read_timeout iv ~timeout_ns with
        | Some (`Resp r) -> `Ok r
        | Some `Stale -> `Down
        | None ->
            Xenic_stats.Counter.incr (counters t) "req_timeouts";
            `Down
      end

let one_sided_t t ~src ~dst verb ~bytes ~at_target =
  match t.p.req_timeout_ns with
  | None -> `Ok (one_sided t ~src ~dst verb ~bytes ~at_target)
  | Some timeout_ns ->
      if dst <> src && t.crashed.(dst) then begin
        (* The verb never completes: the target NIC is gone. Nothing
           executes at the target. *)
        Xenic_stats.Counter.incr (counters t) "req_timeouts";
        Process.sleep t.engine timeout_ns;
        `Down
      end
      else `Ok (one_sided t ~src ~dst verb ~bytes ~at_target)

(* All-or-nothing doorbell batch: if any target of the batch is
   crashed, the batch fails without executing anywhere — the
   coordinator sees the missing completion and gives up on the whole
   attempt, so no partial remote state is installed. *)
let one_sided_many_t t ~src verbs =
  match t.p.req_timeout_ns with
  | None -> `Ok (one_sided_many t ~src verbs)
  | Some timeout_ns ->
      if List.exists (fun (dst, _, _, _) -> dst <> src && t.crashed.(dst)) verbs
      then begin
        Xenic_stats.Counter.incr (counters t) "req_timeouts";
        Process.sleep t.engine timeout_ns;
        `Down
      end
      else `Ok (one_sided_many t ~src verbs)

(* ------------------------------------------------------------------ *)
(* Construction *)

let dispatch_loop t node =
  Process.spawn t.engine (fun () ->
      Attrib.set
        {
          Attrib.stack = flavor_name t.flavor;
          node = node.id;
          phase = "dispatch";
          cls = "-";
        };
      let rx = Xenic_net.Fabric.rx t.fabric node.id in
      let rec loop () =
        let pkt = Mailbox.recv rx in
        if t.crashed.(node.id) then
          (* A crashed node receives nothing: inbound frames fall on
             the floor and senders time out. *)
          Xenic_stats.Counter.add (counters t) "msgs_dropped"
            (List.length pkt.Xenic_net.Packet.msgs)
        else
          List.iter
            (fun m -> Process.spawn t.engine m.deliver)
            pkt.Xenic_net.Packet.msgs;
        loop ()
      in
      loop ())

let apply_cost t (op, _) =
  if Keyspace.ordered (Op.key op) then t.p.btree_op_ns
  else t.hw.host_op_ns +. (float_of_int (Op.bytes op) *. t.hw.host_byte_ns)

let worker_loop t node =
  Process.spawn t.engine (fun () ->
      Attrib.set
        {
          Attrib.stack = flavor_name t.flavor;
          node = node.id;
          phase = "log-apply";
          cls = "-";
        };
      let rec loop () =
        let record, bytes = Xenic_store.Hostlog.poll node.log in
        (* Wait for the coordinator's commit decision; it resolves
           every record (legacy records are born decided). *)
        let rec decide () =
          match !(record.lr_decision) with
          | Dcommit -> true
          | Dabort ->
              Xenic_stats.Counter.incr (counters t) "log_discards";
              false
          | Dpending ->
              Process.sleep t.engine 500.0;
              decide ()
        in
        if not (decide ()) then Xenic_store.Hostlog.ack node.log ~bytes
        else begin
          (* Log application competes with RPC handling and coordinator
             work for the same host threads (§5.2: FaSST handles RPCs on
             the threads performing compute-intensive B+ tree work). *)
          Resource.acquire node.host;
          List.iter
            (fun (op, seq) ->
              Process.sleep t.engine (apply_cost t (op, seq));
              obj_apply t ~node:node.id (op, seq))
            record.lr_ops;
          Resource.release node.host;
          Xenic_store.Hostlog.ack node.log ~bytes
        end;
        loop ()
      in
      loop ())

let create engine hw cfg flavor p =
  (* Same node partitioning as Xenic_system.create: windowed mode when
     [p.partitions > 0] (open-loop runs; lookahead = the wire latency
     every cross-node message pays), exact-order mode otherwise on a
     multi-domain engine. Set before any event is scheduled. *)
  (if p.partitions > 0 then begin
     if Engine.partitions engine <> 0 then
       invalid_arg "Rdma_system.create: engine already has a topology";
     let partitions = min p.partitions cfg.Config.nodes in
     Engine.set_topology engine ~lookahead:hw.Xenic_params.Hw.wire_latency_ns
       ~partitions
       ~node_partition:(fun node ->
         Config.partition_of_node cfg ~partitions ~node)
   end
   else if Engine.domains engine > 1 && Engine.partitions engine = 0 then
     let partitions = min (Engine.domains engine) cfg.Config.nodes in
     Engine.set_topology engine ~partitions
       ~node_partition:(fun node ->
         Config.partition_of_node cfg ~partitions ~node));
  let fabric = Xenic_net.Fabric.create engine hw ~nodes:cfg.Config.nodes in
  Xenic_net.Fabric.set_rate_override fabric
    (Some (Xenic_params.Hw.rdma_rate hw));
  let rdma = Rdma.create fabric in
  let nodes =
    Array.init cfg.Config.nodes (fun id ->
        {
          id;
          stores =
            Array.init cfg.Config.nodes (fun shard ->
                if Config.holds cfg ~shard ~node:id then
                  Some
                    {
                      hash =
                        Xenic_store.Chained.create ~buckets:p.buckets
                          ~b:p.bucket_b;
                      hops =
                        (if flavor = Farm then
                           Some
                             (Xenic_store.Hopscotch.create
                                ~capacity:(p.buckets * p.bucket_b * 2)
                                ~h:8)
                         else None);
                      ordered = Xenic_store.Btree.create ();
                    }
                else None);
          locks = Hashtbl.create 1024;
          host =
            Resource.create engine
              ~name:(Printf.sprintf "host%d" id)
              ~servers:p.host_threads;
          workers =
            Resource.create engine
              ~name:(Printf.sprintf "rwrk%d" id)
              ~servers:p.worker_threads;
          log = Xenic_store.Hostlog.create engine ~capacity_b:p.log_capacity_b;
          txn_seq = 0;
        })
  in
  let t =
    {
      engine;
      hw;
      cfg;
      flavor;
      p;
      fabric;
      rdma;
      nodes;
      metrics = Metrics.create ();
      part_metrics =
        (if p.partitions > 0 then
           Array.init (Engine.partitions engine) (fun _ -> Metrics.create ())
         else [||]);
      part_oracle =
        (if p.partitions > 0 then
           Array.init (Engine.partitions engine) (fun _ -> Oracle.create ())
         else [||]);
      oracle = None;
      primaries =
        Array.init cfg.Config.nodes (fun shard -> Config.primary cfg ~shard);
      alive = Array.make cfg.Config.nodes true;
      crashed = Array.make cfg.Config.nodes false;
      epoch = 0;
      inflight_commits = 0;
      recovery_waiting = 0;
      membership = None;
      trace = None;
      telemetry = None;
    }
  in
  Array.iter
    (fun node ->
      dispatch_loop t node;
      for _ = 1 to p.worker_threads do
        worker_loop t node
      done)
    nodes;
  t

let load t k v =
  List.iter
    (fun n ->
      let s = store t ~node:n ~shard:(Keyspace.shard k) in
      if Keyspace.ordered k then Xenic_store.Btree.insert s.ordered k v
      else
        match s.hops with
        | Some h -> Xenic_store.Hopscotch.insert h k (1, v)
        | None -> Xenic_store.Chained.insert s.hash k v)
    (Config.replicas t.cfg ~shard:(Keyspace.shard k))

let seal _t = ()

let peek t ~node k =
  match obj_read t ~node k with Some (v, _) -> Some v | None -> None

let peek_min t ~node ~lo ~hi =
  let s = store t ~node ~shard:(Keyspace.shard lo) in
  Xenic_store.Btree.min_in_range s.ordered ~lo ~hi

let peek_max t ~node ~lo ~hi =
  let s = store t ~node ~shard:(Keyspace.shard lo) in
  Xenic_store.Btree.max_in_range s.ordered ~lo ~hi

let peek_range t ~node ~lo ~hi =
  let s = store t ~node ~shard:(Keyspace.shard lo) in
  List.rev
    (Xenic_store.Btree.fold_range s.ordered ~lo ~hi ~init:[] (fun acc k v ->
         (k, v) :: acc))

let host_utilization t =
  Array.fold_left (fun acc n -> acc +. Resource.utilization n.host) 0.0 t.nodes
  /. float_of_int (Array.length t.nodes)

(* Admission-control hooks (open-loop driver): shed = aborted with
   reason [Shed]; backpressure = the most loaded of the host RPC pool
   and the (single-server) RDMA NIC processing unit. *)
let record_shed t ~latency_ns =
  let m = mx t in
  Metrics.record m ~latency_ns Types.Aborted;
  Metrics.record_abort_reason m Metrics.Shed

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
               float_of_int (Xenic_net.Fabric.link_busy t.fabric ~node:n.id) );
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
  @ named (Xenic_net.Fabric.resources t.fabric)

let quiesce t =
  let rec wait () =
    let pending =
      Array.exists
        (fun n ->
          (not t.crashed.(n.id))
          && (Xenic_store.Hostlog.used_b n.log > 0
             || Xenic_store.Hostlog.appended n.log
                > Xenic_store.Hostlog.applied n.log))
        t.nodes
    in
    if pending then begin
      Process.sleep t.engine 10_000.0;
      wait ()
    end
  in
  wait ()

let set_oracle t o = t.oracle <- Some o

(* Flush the partition-local oracle buffers into the attached oracle in
   partition-index order; call between engine runs only. No-op on
   unsharded systems. *)
let sync t =
  match t.oracle with
  | None -> ()
  | Some o -> Array.iter (fun po -> Oracle.absorb ~into:o po) t.part_oracle

(* Report a committed transaction to the serializability oracle.
   Execution reads carry values; locked entries carry values when the
   flavor fetched them (DrTM+R's post-CAS READ, where [None] means the
   key was genuinely absent) and lock-time versions only otherwise. *)
let oracle_commit t ~id ~read_results ~locked_entries ~seq_ops =
  match t.oracle with
  | None -> ()
  | Some o ->
      let o =
        if Array.length t.part_oracle = 0 then o
        else t.part_oracle.(Engine.current_partition t.engine)
      in
      let read_keys = List.map (fun (k, _, _) -> k) read_results in
      let reads =
        List.map (fun (k, v, seq) -> (k, seq, Oracle.Value v)) read_results
        @ List.filter_map
            (fun (k, v, seq) ->
              if List.mem k read_keys then None
              else
                match v with
                | Some bv -> Some (k, seq, Oracle.Value (Some bv))
                | None ->
                    if t.flavor = Drtmr then Some (k, seq, Oracle.Value None)
                    else Some (k, seq, Oracle.Version_only))
            locked_entries
      in
      let writes =
        List.map
          (fun (op, seq) ->
            match op with
            | Op.Put (k, b) -> (k, seq, Oracle.Put b)
            | Op.Delete k -> (k, seq, Oracle.Delete))
          seq_ops
      in
      Oracle.record_commit o ~id ~reads ~writes

(* Protocol audit: after [quiesce] every per-node lock table must be
   empty and every log drained. Returns human-readable violations. *)
let audit t =
  let issues = ref [] in
  Array.iter
    (fun n ->
      if t.crashed.(n.id) then ()
      else begin
        Hashtbl.fold (fun k owner acc -> (k, owner) :: acc) n.locks []
        |> List.sort compare
        |> List.iter (fun (k, owner) ->
               issues :=
                 Format.asprintf "rdma node %d: key %a still locked by owner %d"
                   n.id Keyspace.pp k owner
                 :: !issues);
        if
          Xenic_store.Hostlog.used_b n.log > 0
          || Xenic_store.Hostlog.appended n.log
             > Xenic_store.Hostlog.applied n.log
        then
          issues :=
            Printf.sprintf "rdma node %d: log not drained" n.id :: !issues
      end)
    t.nodes;
  List.rev !issues

(* ------------------------------------------------------------------ *)
(* Object wire sizes *)

let value_slot_b v =
  Xenic_store.Kv.slot_bytes
    ~value_b:(match v with Some b -> Bytes.length b | None -> 0)

(* One-sided execution read: with the address cache the coordinator
   reads the object's exact location; without it (NC) it walks the
   chained buckets, one READ of B slots per bucket. *)
let one_sided_read t ~src k =
  let shard = Keyspace.shard k in
  let primary = primary_of t ~shard in
  let slot v = value_slot_b v in
  match t.flavor with
  | Farm ->
      (* One READ of the H-slot neighborhood; overflow keys need a
         second roundtrip for the chain (§2.2.2, Table 2). *)
      let s = store t ~node:primary ~shard in
      let h = Option.get s.hops in
      let reads =
        match Xenic_store.Hopscotch.lookup_cost h k with
        | Some (_, rts) -> rts
        | None -> 1
      in
      let result = ref None in
      for hop = 1 to reads do
        let at_target () =
          if hop = reads then result := obj_read t ~node:primary k
        in
        one_sided t ~src ~dst:primary Rdma.Read
          ~bytes:(8 * Xenic_store.Kv.slot_bytes ~value_b:64)
          ~at_target
      done;
      Xenic_stats.Counter.add (counters t) "read_roundtrips" reads;
      !result
  | Drtmh_nc ->
      let s = store t ~node:primary ~shard in
      let depth =
        match Xenic_store.Chained.lookup_cost s.hash k with
        | Some (_, rts) -> rts
        | None -> 1
      in
      let result = ref None in
      for hop = 1 to depth do
        let at_target () =
          if hop = depth then result := obj_read t ~node:primary k
        in
        one_sided t ~src ~dst:primary Rdma.Read
          ~bytes:(t.p.bucket_b * Xenic_store.Kv.slot_bytes ~value_b:64)
          ~at_target
      done;
      Xenic_stats.Counter.add (counters t) "read_roundtrips" depth;
      !result
  | _ ->
      let r =
        one_sided t ~src ~dst:primary Rdma.Read
          ~bytes:(slot (Option.map fst (obj_read t ~node:primary k)))
          ~at_target:(fun () -> obj_read t ~node:primary k)
      in
      Xenic_stats.Counter.incr (counters t) "read_roundtrips";
      r

(* Armed entry guard for the execution read: a crashed primary never
   completes the READ. *)
let one_sided_read_t t ~src k =
  let primary = primary_of t ~shard:(Keyspace.shard k) in
  match t.p.req_timeout_ns with
  | Some timeout_ns when primary <> src && t.crashed.(primary) ->
      Xenic_stats.Counter.incr (counters t) "req_timeouts";
      Process.sleep t.engine timeout_ns;
      `Down
  | _ -> `Ok (one_sided_read t ~src k)

(* ------------------------------------------------------------------ *)
(* Phase implementations *)

(* Lock the write set. DrTM+H and FaSST lock via (consolidated) RPCs;
   DrTM+R CAS-locks each key one-sided. Returns lock versions+values or
   `Fail; on failure all acquired locks are already released. *)
let lock_phase t ~epoch0 ~src ~owner (write_keys : Keyspace.t list) =
  let by_shard = ref [] in
  List.iter
    (fun k ->
      let s = Keyspace.shard k in
      by_shard :=
        (s, k :: (try List.assoc s !by_shard with Not_found -> []))
        :: List.remove_assoc s !by_shard)
    write_keys;
  let release_shard (shard, keys) =
    let primary = primary_of t ~shard in
    (* Locks at a crashed primary died with its memory. *)
    if not t.crashed.(primary) then
      match t.flavor with
      | Drtmr ->
          ignore
            (one_sided_many_t t ~src
               (List.map
                  (fun k ->
                    ( primary,
                      Rdma.Write,
                      16,
                      fun () -> unlock t ~node:primary k ~owner ))
                  keys))
      | _ ->
          (* No epoch stamp: an abort must land across a bump (unlock
             is owner-guarded, so it is safe in any configuration). *)
          ignore
            (rpc_t t ~src ~dst:primary
               ~req_bytes:(Wire.abort_b ~n_locks:(List.length keys))
               ~resp_bytes:(fun _ -> Wire.small_resp_b)
               ~handler_ns:t.hw.host_rpc_ns
               (fun () ->
                 List.iter (fun k -> unlock t ~node:primary k ~owner) keys))
  in
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
                     (List.map
                        (fun k ->
                          ( primary,
                            Rdma.Write,
                            16,
                            fun () -> unlock t ~node:primary k ~owner ))
                        acquired));
              (shard, `Fail)
            end
            else
              match
                one_sided_many_t t ~src
                  (List.map
                     (fun k ->
                       ( primary,
                         Rdma.Read,
                         value_slot_b
                           (Option.map fst (obj_read t ~node:primary k)),
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
                  (shard, `Ok entries)))
    | _ -> (
        (* Lock RPC: acquires the shard's locks and returns versions
           only — in DrTM+H the object values were already retrieved by
           one-sided execution reads ("retrieve the value, then lock"). *)
        let r =
          rpc_t t ~epoch0 ~src ~dst:primary
            ~req_bytes:
              (Wire.execute_req_b ~n_reads:0 ~n_locks:(List.length keys)
                 ~state_bytes:0)
            ~resp_bytes:(fun r ->
              match r with
              | `Fail -> Wire.small_resp_b
              | `Ok entries -> Wire.small_resp_b + (8 * List.length entries))
            ~handler_ns:
              (t.hw.host_rpc_ns
              +. (float_of_int (List.length keys) *. t.hw.host_op_ns))
            (fun () ->
              let rec go acc = function
                | [] -> `Ok (List.rev acc)
                | k :: rest ->
                    if try_lock t ~node:primary k ~owner then
                      let seq =
                        match obj_read t ~node:primary k with
                        | Some (_, s) -> s
                        | None -> 0
                      in
                      go ((k, None, seq) :: acc) rest
                    else begin
                      List.iter
                        (fun (k', _, _) -> unlock t ~node:primary k' ~owner)
                        acc;
                      `Fail
                    end
              in
              go [] keys)
        in
        match r with
        | `Down -> (shard, `Down)
        | `Ok `Fail -> (shard, `Fail)
        | `Ok (`Ok entries) -> (shard, `Ok entries))
  in
  let results = Process.parallel t.engine (List.map lock_shard !by_shard) in
  let down = List.exists (fun (_, r) -> r = `Down) results in
  if down || List.exists (fun (_, r) -> r = `Fail) results then begin
    if not down then
      Xenic_stats.Counter.incr (counters t) "exec_lock_conflicts";
    List.iter
      (fun (shard, r) ->
        match r with
        | `Ok entries when entries <> [] ->
            release_shard (shard, List.map (fun (k, _, _) -> k) entries)
        | _ -> ())
      results;
    if down then `Down else `Fail
  end
  else
    `Ok
      (List.concat_map
         (fun (_, r) -> match r with `Ok entries -> entries | _ -> [])
         results)

(* Validation: DrTM+H/NC re-read version words one-sided; FaSST uses a
   per-shard RPC. *)
let validate_phase t ~epoch0 ~src ~owner checks :
    [ `Valid | `Invalid | `Down ] =
  match t.flavor with
  | Drtmr -> `Valid (* all accesses are locked; no validation phase *)
  | Fasst ->
      let by_shard = Hashtbl.create 4 in
      List.iter
        (fun (k, seq) ->
          let s = Keyspace.shard k in
          Hashtbl.replace by_shard s
            ((k, seq) :: Option.value ~default:[] (Hashtbl.find_opt by_shard s)))
        checks;
      let shards =
        Hashtbl.fold (fun s cs acc -> (s, cs) :: acc) by_shard []
        |> List.sort compare
      in
      let results =
        Process.parallel t.engine
          (List.map
             (fun (shard, cs) () ->
               let primary = primary_of t ~shard in
               rpc_t t ~epoch0 ~src ~dst:primary
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
      else if List.for_all (fun r -> r = `Ok true) results then `Valid
      else `Invalid
  | Drtmh | Drtmh_nc | Farm -> (
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
      | `Ok results -> if List.for_all Fun.id results then `Valid else `Invalid)

(* LOG: replicate the write set to every backup. DrTM+H/NC/DrTM+R use
   one-sided WRITEs into the backups' log regions; FaSST uses RPCs. *)
let log_phase t ~src ~decision seq_ops_by_shard =
  let targets =
    List.concat_map
      (fun (shard, seq_ops) ->
        List.map (fun b -> (b, seq_ops)) (backups_of t ~shard))
      seq_ops_by_shard
  in
  let append backup seq_ops bytes () =
    Xenic_store.Hostlog.append t.nodes.(backup).log ~bytes
      { lr_ops = seq_ops; lr_decision = decision }
  in
  (* Armed retry rule: a timed-out LOG to a now-known-crashed backup is
     abandoned (a dead backup is never promoted after its declaration);
     a resend to a live one is idempotent (sequence-guarded apply). No
     epoch stamp — a fenced transaction must finish its replication
     across a bump. *)
  let rec settle_rpc backup bytes seq_ops n =
    match
      rpc_t t ~src ~dst:backup ~req_bytes:bytes
        ~resp_bytes:(fun _ -> Wire.small_resp_b)
        ~handler_ns:t.hw.host_rpc_ns (append backup seq_ops bytes)
    with
    | `Ok (_ : int) -> ()
    | `Down ->
        if t.crashed.(src) then
          (* The coordinator itself died mid-LOG: responses into it are
             dropped, so the timeout says nothing about the backup.
             Stop retrying — the shared decision resolves to abort
             right after the phase, and backups discard. *)
          Xenic_stats.Counter.incr (counters t) "log_from_dead_coord"
        else if t.crashed.(backup) then
          Xenic_stats.Counter.incr (counters t) "log_to_dead_backup"
        else if n >= 8 then
          failwith "rdma: LOG to a live backup timed out repeatedly"
        else settle_rpc backup bytes seq_ops (n + 1)
  in
  let rec settle_write backup bytes seq_ops n =
    match
      one_sided_t t ~src ~dst:backup Rdma.Write ~bytes
        ~at_target:(append backup seq_ops bytes)
    with
    | `Ok (_ : int) -> ()
    | `Down ->
        if t.crashed.(src) then
          Xenic_stats.Counter.incr (counters t) "log_from_dead_coord"
        else if t.crashed.(backup) then
          Xenic_stats.Counter.incr (counters t) "log_to_dead_backup"
        else if n >= 8 then
          failwith "rdma: LOG to a live backup timed out repeatedly"
        else settle_write backup bytes seq_ops (n + 1)
  in
  match t.flavor with
  | Fasst ->
      ignore
        (Process.parallel t.engine
           (List.map
              (fun (backup, seq_ops) () ->
                let bytes = Wire.log_record_b ~ops:(List.map fst seq_ops) in
                settle_rpc backup bytes seq_ops 1)
              targets))
  | _ ->
      if not (armed t) then
        ignore
          (one_sided_many t ~src
             (List.map
                (fun (backup, seq_ops) ->
                  let bytes = Wire.log_record_b ~ops:(List.map fst seq_ops) in
                  (backup, Rdma.Write, bytes, append backup seq_ops bytes))
                targets))
      else
        ignore
          (Process.parallel t.engine
             (List.map
                (fun (backup, seq_ops) () ->
                  let bytes = Wire.log_record_b ~ops:(List.map fst seq_ops) in
                  settle_write backup bytes seq_ops 1)
                targets))

(* COMMIT: apply new values at primaries, bump versions, release locks.
   DrTM+R writes value+version+lock in a single WRITE per key; the
   others use a per-shard RPC. *)
let commit_phase t ~src ~owner seq_ops_by_shard locked_by_shard =
  (* A primary that crashed after the (decided) LOG is skipped: its
     locks and memory died with it, and the committed values reach the
     shard's survivors through their backup logs before promotion. *)
  let live (shard, _) =
    let primary = primary_of t ~shard in
    if t.crashed.(primary) then begin
      Xenic_stats.Counter.incr (counters t) "commit_to_dead_primary";
      false
    end
    else true
  in
  let seq_ops_by_shard =
    if armed t then List.filter live seq_ops_by_shard else seq_ops_by_shard
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
                        obj_apply t ~node:primary (op, seq);
                        unlock t ~node:primary (Op.key op) ~owner ))
                  seq_ops)
              seq_ops_by_shard))
  | _ ->
      ignore
        (Process.parallel t.engine
           (List.map
              (fun (shard, seq_ops) () ->
                let primary = primary_of t ~shard in
                let locked =
                  Option.value ~default:[] (List.assoc_opt shard locked_by_shard)
                in
                let bytes = Wire.write_ops_b ~ops:(List.map fst seq_ops) in
                ignore
                  (rpc_t t ~src ~dst:primary ~req_bytes:bytes
                     ~resp_bytes:(fun _ -> Wire.small_resp_b)
                     ~handler_ns:
                       (t.hw.host_rpc_ns
                       +. float_of_int (List.length seq_ops) *. t.hw.host_op_ns)
                     (fun () ->
                       List.iter
                         (fun (op, seq) -> obj_apply t ~node:primary (op, seq))
                         seq_ops;
                       List.iter (fun k -> unlock t ~node:primary k ~owner) locked)))
              seq_ops_by_shard))

(* ------------------------------------------------------------------ *)
(* Transaction driver *)

let seq_ops_of ~lock_versions ops =
  List.map
    (fun op ->
      let k = Op.key op in
      match List.assoc_opt k lock_versions with
      | Some seq -> (op, seq + 1)
      | None -> (op, 1))
    ops

let group_ops_by_shard seq_ops =
  List.sort_uniq compare (List.map (fun (op, _) -> Keyspace.shard (Op.key op)) seq_ops)
  |> List.map (fun s ->
         (s, List.filter (fun (op, _) -> Keyspace.shard (Op.key op) = s) seq_ops))

(* FaSST's consolidated execute: one RPC per shard locks that shard's
   write-set keys AND reads its read-set keys (§2.2.2). *)
let fasst_execute t ~epoch0 ~src ~owner ~reads ~locks =
  let shards =
    List.sort_uniq compare (List.map Keyspace.shard (reads @ locks))
  in
  let one shard () =
    let primary = primary_of t ~shard in
    let s_reads = List.filter (fun k -> Keyspace.shard k = shard) reads in
    let s_locks = List.filter (fun k -> Keyspace.shard k = shard) locks in
    let r =
      rpc_t t ~epoch0 ~src ~dst:primary
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
          let rec acquire acc = function
            | [] -> Some (List.rev acc)
            | k :: rest ->
                if try_lock t ~node:primary k ~owner then
                  let seq =
                    match obj_read t ~node:primary k with
                    | Some (_, s) -> s
                    | None -> 0
                  in
                  acquire ((k, None, seq) :: acc) rest
                else begin
                  List.iter
                    (fun (k', _, _) -> unlock t ~node:primary k' ~owner)
                    acc;
                  None
                end
          in
          match acquire [] s_locks with
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
  let results = Process.parallel t.engine (List.map one shards) in
  let down = List.exists (fun (_, r) -> r = `Down) results in
  if down || List.exists (fun (_, r) -> r = `Fail) results then begin
    if not down then
      Xenic_stats.Counter.incr (counters t) "exec_lock_conflicts";
    (* Release locks acquired at other shards. *)
    List.iter
      (fun (shard, r) ->
        match r with
        | `Ok (lockv, _) when lockv <> [] ->
            let primary = primary_of t ~shard in
            if not t.crashed.(primary) then
              (* Epoch-free: the abort must land across a bump. *)
              ignore
                (rpc_t t ~src ~dst:primary
                   ~req_bytes:(Wire.abort_b ~n_locks:(List.length lockv))
                   ~resp_bytes:(fun _ -> Wire.small_resp_b)
                   ~handler_ns:t.hw.host_rpc_ns
                   (fun () ->
                     List.iter
                       (fun (k, _, _) -> unlock t ~node:primary k ~owner)
                       lockv))
        | _ -> ())
      results;
    if down then `Down else `Fail
  end
  else
    let lockv =
      List.concat_map
        (fun (_, r) -> match r with `Ok (lv, _) -> lv | _ -> [])
        results
    in
    let values =
      List.concat_map
        (fun (_, r) -> match r with `Ok (_, vs) -> vs | _ -> [])
        results
    in
    `Ok (lockv, values)

(* Commit fence (armed mode): recovery waits until every transaction
   past its LOG has resolved, and refuses to let new ones start
   replicating while a declaration is being processed. *)
let fence_acquire t ~src ~epoch0 =
  let rec wait () =
    if t.crashed.(src) || t.epoch <> epoch0 then false
    else if t.recovery_waiting > 0 then begin
      Process.sleep t.engine 1_000.0;
      wait ()
    end
    else begin
      t.inflight_commits <- t.inflight_commits + 1;
      true
    end
  in
  wait ()

let fence_release t = t.inflight_commits <- t.inflight_commits - 1

let rec attempt t ~node ~epoch0 (txn : Types.t) :
    [ `Committed
    | `Aborted of Metrics.abort_reason
    | `Retry of Metrics.abort_reason ] =
  let n = t.nodes.(node) in
  n.txn_seq <- n.txn_seq + 1;
  let owner = (node * 1_000_000_000) + n.txn_seq in
  let src = node in
  let t0 = Engine.now t.engine in
  let mark name t_prev = phase_mark t ~src ~seq:n.txn_seq name t_prev in
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
        Process.parallel t.engine
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
  let lock_result =
    match t.flavor with
    | Fasst ->
        fasst_execute t ~epoch0 ~src ~owner ~reads:txn.read_set
          ~locks:txn.write_set
    | _ -> (
        match lock_phase t ~epoch0 ~src ~owner lock_keys with
        | `Fail -> `Fail
        | `Down -> `Down
        | `Ok entries -> `Ok (entries, exec_reads))
  in
  let release_keys keys =
    let by_shard = Hashtbl.create 4 in
    List.iter
      (fun k ->
        let s = Keyspace.shard k in
        Hashtbl.replace by_shard s
          (k :: Option.value ~default:[] (Hashtbl.find_opt by_shard s)))
      keys;
    Hashtbl.fold (fun shard keys acc -> (shard, keys) :: acc) by_shard []
    |> List.sort compare
    |> List.iter
      (fun (shard, keys) ->
        let primary = primary_of t ~shard in
        if not t.crashed.(primary) then
          match t.flavor with
          | Drtmr ->
              ignore
                (one_sided_many_t t ~src
                   (List.map
                      (fun k ->
                        ( primary,
                          Rdma.Write,
                          16,
                          fun () -> unlock t ~node:primary k ~owner ))
                      keys))
          | _ ->
              (* Epoch-free: the abort must land across a bump. *)
              ignore
                (rpc_t t ~src ~dst:primary
                   ~req_bytes:(Wire.abort_b ~n_locks:(List.length keys))
                   ~resp_bytes:(fun _ -> Wire.small_resp_b)
                   ~handler_ns:t.hw.host_rpc_ns
                   (fun () ->
                     List.iter
                       (fun k -> unlock t ~node:primary k ~owner)
                       keys)))
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
  | `Ok (locked_entries, read_results_pre) -> (
      let t1 = mark "execute" t0 in
      let abort_all () =
        release_keys (List.map (fun (k, _, _) -> k) locked_entries)
      in
      let read_results = read_results_pre in
      (* Lock-time versions must match the execution-read versions for
         keys both read and written, or the value in hand is stale. *)
      let lock_matches_read =
        List.for_all
          (fun (k, _, lock_seq) ->
            match List.find_opt (fun (k', _, _) -> k' = k) read_results with
            | Some (_, _, read_seq) -> read_seq = lock_seq
            | None -> true)
          locked_entries
      in
      if not lock_matches_read then begin
        Xenic_stats.Counter.incr (counters t) "lock_version_conflicts";
        abort_all ();
        `Aborted Metrics.Validation_failure
      end
      else
      let values = read_results @ locked_entries in
      let view k =
        match List.find_opt (fun (k', _, _) -> k' = k) values with
        | Some (_, v, _) -> v
        | None -> None
      in
      (* Execution at the coordinator host. A multi-shot More releases
         the locks and replays the transaction with the extended
         read/write sets (an extra protocol round, as an RPC system
         would issue). *)
      Attrib.set_phase "exec-fn";
      Resource.use n.host txn.host_exec_ns;
      match txn.exec view with
      | Types.More { read; lock } ->
          abort_all ();
          if List.length txn.read_set > 256 then
            (* Footprint growth the lock acquisition could not keep up
               with (same taxonomy as Xenic's round-budget overflow). *)
            `Aborted Metrics.Lock_conflict
          else
            attempt t ~node ~epoch0
              {
                txn with
                Types.read_set = List.sort_uniq compare (txn.read_set @ read);
                write_set = List.sort_uniq compare (txn.write_set @ lock);
              }
      | Types.Done ops ->
      let t2 = mark "exec-fn" t1 in
      (* Validate read-only keys. *)
      let checks =
        List.filter_map
          (fun k ->
            match List.find_opt (fun (k', _, _) -> k' = k) read_results with
            | Some (_, _, seq) -> Some (k, seq)
            | None -> None)
          (Types.validate_set txn)
      in
      let valid =
        if checks = [] then `Valid
        else begin
          Attrib.set_phase "validate";
          validate_phase t ~epoch0 ~src ~owner checks
        end
      in
      (* Only record a validate sample when the phase did work: DrTM+R
         validates by locking its read set during EXECUTE, so its
         validate_phase is a constant-time `Valid — marking it would
         report a misleading "validate: 0" mean (the Fig 8/9 audit). *)
      let t3 =
        if checks = [] || t.flavor = Drtmr then t2 else mark "validate" t2
      in
      match valid with
      | `Down ->
          abort_all ();
          `Retry Metrics.Timeout
      | `Invalid ->
          Xenic_stats.Counter.incr (counters t) "validate_conflicts";
          abort_all ();
          `Aborted Metrics.Validation_failure
      | `Valid ->
          if ops = [] && lock_keys = [] then begin
            oracle_commit t ~id:owner ~read_results ~locked_entries
              ~seq_ops:[];
            `Committed
          end
          else if ops = [] then begin
            (* Locked but nothing to write (e.g. DrTM+R read-only):
               release. *)
            abort_all ();
            oracle_commit t ~id:owner ~read_results ~locked_entries
              ~seq_ops:[];
            `Committed
          end
          else begin
            let lock_versions =
              List.map (fun (k, _, seq) -> (k, seq)) locked_entries
            in
            let seq_ops = seq_ops_of ~lock_versions ops in
            let seq_ops_by_shard = group_ops_by_shard seq_ops in
            let locked_by_shard =
              List.map
                (fun (shard, _) ->
                  ( shard,
                    List.filter_map
                      (fun (k, _, _) ->
                        if Keyspace.shard k = shard then Some k else None)
                      locked_entries ))
                seq_ops_by_shard
            in
            (* Release locks on keys that were locked but not written
               (DrTM+R read-set locks). *)
            let release_residual () =
              let written = List.map (fun (op, _) -> Op.key op) seq_ops in
              let residual =
                List.filter_map
                  (fun (k, _, _) ->
                    if List.mem k written then None else Some k)
                  locked_entries
              in
              if residual <> [] then release_keys residual
            in
            if not (armed t) then begin
              Attrib.set_phase "log";
              log_phase t ~src ~decision:(ref Dcommit) seq_ops_by_shard;
              let t4 = mark "log" t3 in
              Attrib.set_phase "commit";
              commit_phase t ~src ~owner seq_ops_by_shard locked_by_shard;
              release_residual ();
              oracle_commit t ~id:owner ~read_results ~locked_entries ~seq_ops;
              ignore (mark "commit" t4);
              `Committed
            end
            else if not (fence_acquire t ~src ~epoch0) then begin
              (* Configuration moved (or we crashed) between validation
                 and commit: abort before the first LOG byte. *)
              Xenic_stats.Counter.incr (counters t) "fence_refusals";
              abort_all ();
              `Retry Metrics.Stale_epoch
            end
            else begin
              let decision = ref Dpending in
              Attrib.set_phase "log";
              log_phase t ~src ~decision seq_ops_by_shard;
              let t4 = mark "log" t3 in
              if t.crashed.(src) then begin
                (* Died mid-LOG: never decide; backups discard. *)
                decision := Dabort;
                fence_release t;
                `Aborted Metrics.Crashed_owner
              end
              else begin
                (* Commit point: decide and hand COMMIT to the fabric
                   in one atomic step. *)
                decision := Dcommit;
                oracle_commit t ~id:owner ~read_results ~locked_entries
                  ~seq_ops;
                Attrib.set_phase "commit";
                commit_phase t ~src ~owner seq_ops_by_shard locked_by_shard;
                release_residual ();
                fence_release t;
                ignore (mark "commit" t4);
                `Committed
              end
            end
          end)

let run_txn t ~node (txn : Types.t) =
  let t_start = Engine.now t.engine in
  (* One taxonomy reason per [Types.Aborted] returned to the caller, so
     reason counts always sum to this metrics object's
     aborted-transaction count. *)
  let abort_with reason =
    let m = mx t in
    let latency_ns = Engine.now t.engine -. t_start in
    Metrics.record m ~latency_ns Types.Aborted;
    Metrics.record_abort_reason m reason;
    (match t.telemetry with
    | None -> ()
    | Some tel ->
        Xenic_telemetry.Telemetry.record_abort tel
          ~label:(Attrib.get ()).Attrib.cls ~stack:(flavor_name t.flavor)
          ~node
          ~reason:(Metrics.abort_reason_name reason) ~latency_ns);
    trace_instant t ~cat:"txn" ~name:"abort" ~pid:node
      ~tid:t.nodes.(node).txn_seq
      [ ("reason", Metrics.abort_reason_name reason) ];
    Types.Aborted
  in
  let commit () =
    let now = Engine.now t.engine in
    (* Outer transaction span for the profiler's critical-path
       extraction; see the Xenic-side twin in xenic_system.ml. *)
    (match t.trace with
    | None -> ()
    | Some tr ->
        Trace.span tr ~cat:"txnlat" ~name:"txn" ~pid:node
          ~tid:t.nodes.(node).txn_seq ~ts:t_start ~dur:(now -. t_start)
          ~args:[ ("cls", (Attrib.get ()).Attrib.cls) ]
          ());
    Metrics.record (mx t) ~latency_ns:(now -. t_start) Types.Committed;
    (match t.telemetry with
    | None -> ()
    | Some tel ->
        Xenic_telemetry.Telemetry.record_commit tel
          ~label:(Attrib.get ()).Attrib.cls ~stack:(flavor_name t.flavor)
          ~node ~latency_ns:(now -. t_start));
    Types.Committed
  in
  if not (armed t) then
    match attempt t ~node ~epoch0:t.epoch txn with
    | `Committed -> commit ()
    | `Aborted reason -> abort_with reason
    | `Retry _ -> assert false
  else
    let rec go att backoff =
      if t.crashed.(node) then abort_with Metrics.Crashed_owner
      else
        match attempt t ~node ~epoch0:t.epoch txn with
        | `Committed -> commit ()
        | `Aborted reason -> abort_with reason
        | `Retry reason ->
            Xenic_stats.Counter.incr (counters t) "txn_retries";
            trace_instant t ~cat:"txn" ~name:"retry" ~pid:node
              ~tid:t.nodes.(node).txn_seq
              [ ("reason", Metrics.abort_reason_name reason) ];
            if att >= t.p.max_retries then abort_with reason
            else begin
              Process.sleep t.engine backoff;
              go (att + 1) (backoff *. 2.0)
            end
    in
    go 1 t.p.retry_backoff_ns

(* -- Reconfiguration ------------------------------------------------ *)

let node_alive t ~node = t.alive.(node) && not t.crashed.(node)

let current_primary t ~shard = t.primaries.(shard)

(* Break locks held at surviving nodes by coordinators that died
   between their lock phase and release; the owner token encodes the
   coordinator id. *)
let sweep_dead_owner_locks t =
  Array.iter
    (fun node ->
      if not t.crashed.(node.id) then
        Hashtbl.fold (fun k owner acc -> (k, owner) :: acc) node.locks []
        |> List.sort compare
        |> List.iter (fun (k, owner) ->
               let coord = owner / 1_000_000_000 in
               if t.crashed.(coord) then begin
                 Xenic_stats.Counter.incr (counters t) "recovery_lock_sweeps";
                 Hashtbl.remove node.locks k
               end))
    t.nodes

(* Membership-driven recovery: wait out in-flight commits behind the
   fence, break dead coordinators' locks, drain each successor's backup
   log (every record is decided, so this terminates), and flip the
   primary map. Stores are fully replicated, so promotion is just a
   routing change. *)
let recover t =
  let rec wait_fence () =
    if t.inflight_commits > 0 then begin
      Process.sleep t.engine 1_000.0;
      wait_fence ()
    end
  in
  wait_fence ();
  trace_instant t ~cat:"recovery" ~name:"recovery-start" ~pid:0 ~tid:0
    [ ("epoch", string_of_int t.epoch) ];
  sweep_dead_owner_locks t;
  Array.iteri
    (fun shard p ->
      if t.crashed.(p) then begin
        match
          List.find_opt
            (fun n -> t.alive.(n) && not t.crashed.(n))
            (Config.replicas t.cfg ~shard)
        with
        | None -> invalid_arg "recover: no live replica"
        | Some np ->
            let log = t.nodes.(np).log in
            let rec drain () =
              if
                Xenic_store.Hostlog.used_b log > 0
                || Xenic_store.Hostlog.appended log
                   > Xenic_store.Hostlog.applied log
              then begin
                Process.sleep t.engine 1_000.0;
                drain ()
              end
            in
            drain ();
            t.primaries.(shard) <- np;
            trace_instant t ~cat:"recovery" ~name:"promote" ~pid:np ~tid:0
              [ ("shard", string_of_int shard) ];
            Xenic_stats.Counter.incr (counters t) "recovery_promotions"
      end)
    t.primaries;
  t.recovery_waiting <- t.recovery_waiting - 1;
  trace_instant t ~cat:"recovery" ~name:"recovery-done" ~pid:0 ~tid:0
    [ ("epoch", string_of_int t.epoch) ]

let attach_membership t m =
  t.membership <- Some m;
  Membership.on_reconfigure m (fun ~epoch:_ ~dead ->
      (* Synchronous with the declaration: freeze routing atomically,
         then recover in the background. *)
      t.epoch <- t.epoch + 1;
      trace_instant t ~cat:"recovery" ~name:"epoch-bump" ~pid:0 ~tid:0
        [ ("epoch", string_of_int t.epoch) ];
      List.iter
        (fun n ->
          t.alive.(n) <- false;
          t.crashed.(n) <- true)
        dead;
      t.recovery_waiting <- t.recovery_waiting + 1;
      Process.spawn t.engine (fun () -> recover t))

let crash_node t ~node =
  if not t.crashed.(node) then begin
    Xenic_stats.Counter.incr (counters t) "node_crashes";
    trace_instant t ~cat:"recovery" ~name:"crash" ~pid:node ~tid:0 [];
    t.crashed.(node) <- true;
    match t.membership with
    | Some m -> Membership.fail_node m ~node
    | None ->
        (* Nothing would ever declare the node: remove it from routing
           immediately. *)
        t.alive.(node) <- false
  end

(* Flap rejoin is not modeled for the RDMA baselines: their lock words
   live in host memory (they survive a NIC reset, unlike Xenic's NIC
   SRAM), so a sound rejoin would need lock reconciliation in the
   chained tables on top of state transfer. A recovery request is
   therefore always refused — counted, never raised — and the node
   stays out under the fail-stop discipline; the scenario validator
   rejects flap scenarios on these stacks. *)
let recover_node t ~node =
  if t.crashed.(node) then begin
    Xenic_stats.Counter.incr (counters t) "rejoin_refused";
    trace_instant t ~cat:"recovery" ~name:"rejoin-refused" ~pid:node ~tid:0 []
  end

(* -- Gray-failure hooks (scenario injection) ------------------------ *)

let net_enable_faults t ~seed ~rto_ns =
  Xenic_net.Fabric.enable_faults t.fabric ~seed ~rto_ns

let net_set_cut t ~src ~dst cut = Xenic_net.Fabric.set_cut t.fabric ~src ~dst cut

let net_set_loss t ~src ~dst p = Xenic_net.Fabric.set_loss t.fabric ~src ~dst p

let net_set_delay t ~src ~dst f = Xenic_net.Fabric.set_delay t.fabric ~src ~dst f

let set_nic_slowdown t ~node f = Rdma.set_slowdown t.rdma ~node f

let degrade_nic_cores t ~node ~n ~dur_ns =
  (* The RDMA NIC model has one processing unit per node, not a core
     pool: degrading [n >= 1] "cores" stalls that unit for the
     duration. *)
  if n > 0 then Rdma.degrade_unit t.rdma ~node ~dur_ns

let stop_background t =
  match t.membership with Some m -> Membership.stop m | None -> ()
