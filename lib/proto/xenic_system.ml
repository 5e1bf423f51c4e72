open Xenic_sim
open Xenic_cluster
open Xenic_nicdev

type msg = Control.msg

type params = {
  features : Features.t;
  app_threads : int;
  worker_threads : int;
  nic_threads : int;
  cache_capacity : int;
  segments : int;
  seg_size : int;
  d_max : int option;
  armed : bool;
      (* request deadlines ([Control.req_timeout_ns]), the fault-
         tolerant commit path (epoch fencing, retry with backoff) and a
         started lease-based membership. false (default): the
         no-failure fast path. *)
  partitions : int;
      (* > 1: install a windowed conservative-PDES topology over this
         many node partitions (lookahead = the fabric wire latency) and
         shard metrics and the oracle feed per partition, so open-loop
         generators on different partitions never touch shared mutable
         state. 0 (default) or 1: the engine's one partition, whatever
         its domain budget, with one metrics shard and one oracle
         buffer. Runs on several partitions must stay un-armed (the
         fence, epoch and membership machinery is cross-partition by
         construction); [Control] rejects an armed windowed system. *)
}

let default_params =
  {
    features = Features.full;
    app_threads = 4;
    worker_threads = 3;
    nic_threads = 16;
    cache_capacity = 4096;
    segments = 256;
    seg_size = 64;
    d_max = Some 8;
    armed = false;
    partitions = 0;
  }

type node = {
  id : int;
  nic : Smartnic.t;
  agg : msg Xenic_net.Aggregator.t;
  storage : Storage.t;  (* this node's store in [Control.storage] *)
  indexes : bytes Xenic_store.Nic_index.t option array;
      (* caching index per shard this node is CURRENTLY primary of;
         initially just its own shard, extended by promotion *)
  log : Control.log_record Xenic_store.Hostlog.t;  (* backup LOG records *)
  commit_log : Control.log_record Xenic_store.Hostlog.t;
      (* primary COMMIT records, drained separately so hot-row
         freshness does not queue behind bulky backup records *)
  app : Resource.t;
  workers : Resource.t;
  io : Xenic_store.Nic_index.io;  (* caching-index I/O on [nic] *)
  charge : Control.via;
      (* a response's arrival here: one core operation on [nic], then
         its continuation; built once *)
}

type t = {
  ctl : Control.t;  (* routing, fence, recovery, metrics/oracle *)
  hw : Xenic_params.Hw.t;
  p : params;
  nodes : node array;
  tr : Control.transport;  (* NIC request transport, built once *)
}

(* Current primary routing (reconfiguration-aware, §4.2.1). *)
let primary_of t ~shard = Control.current_primary t.ctl ~shard

(* The caching index a node serves for [k]'s shard. *)
let idx_for node k =
  match node.indexes.(Keyspace.shard k) with
  | Some idx -> idx
  | None ->
      invalid_arg
        (Printf.sprintf "node %d is not primary of shard %d" node.id
           (Keyspace.shard k))

let control t = t.ctl

let counters t = Control.counters t.ctl

(* ------------------------------------------------------------------ *)
(* Messaging *)

let post ctl nodes ~src ~dst ~bytes msg =
  Xenic_stats.Counter.incr (Control.counters ctl) "msgs";
  Xenic_stats.Counter.add (Control.counters ctl) "msg_bytes" bytes;
  Xenic_net.Aggregator.push nodes.(src).agg ~dst ~bytes msg

(* A message from [src] to [dst], delivered as [via] says
   ({!Control.run_via}); a node's message to itself is delivered in
   place, with no frame. A request runs [In_process], an acknowledgement
   that never blocks [In_place], and a response to a NIC request is
   charged one core operation of [dst]'s NIC first ([node.charge]). *)
let message ctl nodes via ~src ~dst ~bytes k =
  if src = dst then Control.run_via ctl via k
  else post ctl nodes ~src ~dst ~bytes (Control.message ~bytes via k)

(* Requests between NICs: a core charge at the requester's NIC as the
   request leaves and again as the response arrives. A stale request is
   answered with a small reject frame. *)
let transport ctl nodes =
  {
    Control.depart =
      (fun ~src ~dst:_ ~bytes:_ ->
        Smartnic.core_work nodes.(src).nic ~ops:1 ~bytes:0);
    send = message ctl nodes Control.In_process;
    back =
      (fun ~src ~dst ~bytes k ->
        message ctl nodes nodes.(src).charge ~src:dst ~dst:src ~bytes k);
    reject =
      (fun ~src ~dst ~bytes k ->
        message ctl nodes Control.In_place ~src:dst ~dst:src ~bytes k);
  }

(* Request/response between NICs from a coordinator process
   ({!Control.call}). *)
let request t ?epoch0 ~src ~dst ~req_bytes ~resp_bytes handler =
  Control.call t.ctl t.tr ?epoch0 ~src ~dst ~req_bytes ~resp_bytes handler

(* One-way message to a live destination NIC; one to a crashed one is
   dropped. *)
let notify t via ~src ~dst ~bytes f =
  if t.ctl.crashed.(dst) && dst <> src then
    Xenic_stats.Counter.incr (counters t) "msgs_dropped"
  else message t.ctl t.nodes via ~src ~dst ~bytes f

(* ------------------------------------------------------------------ *)
(* NIC-side helpers *)

(* DMA access from a handler holding a NIC core. With async DMA the
   core is released while the transfer is in flight (§4.3.1); without
   it the core blocks for the whole unvectored transfer. *)
let dma_io ctl (features : Features.t) nic kind ~bytes =
  let dma = Smartnic.dma nic in
  let cores = Smartnic.cores nic in
  (match kind with
  | `Read -> Xenic_stats.Counter.incr (Control.counters ctl) "dma_reads"
  | `Write -> Xenic_stats.Counter.incr (Control.counters ctl) "dma_writes");
  if features.async_dma then begin
    Resource.release cores;
    (match kind with
    | `Read -> Xenic_pcie.Dma.read dma ~bytes
    | `Write -> Xenic_pcie.Dma.write dma ~bytes);
    Resource.acquire cores
  end
  else
    match kind with
    | `Read -> Xenic_pcie.Dma.read dma ~bytes
    | `Write -> Xenic_pcie.Dma.write dma ~bytes

(* Caching-index I/O charged to [nic] (core held by caller). Built once
   per node, into [node.io]. *)
let index_io ctl features nic =
  {
    Xenic_store.Nic_index.nic_mem = (fun () -> Smartnic.mem_access nic);
    dma_read = (fun ~slots:_ ~bytes -> dma_io ctl features nic `Read ~bytes);
  }

(* ------------------------------------------------------------------ *)
(* Server-side handlers (run at the primary's NIC) *)

(* Each handler acquires a NIC core, runs a top-level body and releases
   the core. There is no [finally]: an exception escaping a handler
   ends the simulation ({!Process.spawn}), so nothing would observe the
   core it leaves held. Key walks are top-level functions taking their
   state as arguments, so a handler builds no closure. *)

(* A lock or read another owner holds: the walk that meets it unwinds
   (releasing what it took) to the handler, allocating nothing. *)
exception Conflict

(* Lock [keys] in order, returning their lock versions. On a conflict,
   release the locks already taken, the latest first, and raise
   [Conflict]. *)
let rec lock_all idx io ~owner = function
  | [] -> []
  | k :: rest -> (
      match Xenic_store.Nic_index.try_lock idx io k ~owner with
      | `Locked -> raise_notrace Conflict
      | `Acquired seq -> (
          match lock_all idx io ~owner rest with
          | lock_versions -> (k, seq) :: lock_versions
          | exception Conflict ->
              Xenic_store.Nic_index.unlock idx k ~owner;
              raise_notrace Conflict))

let rec unlock_versions idx ~owner = function
  | [] -> ()
  | (k, _) :: rest ->
      Xenic_store.Nic_index.unlock idx k ~owner;
      unlock_versions idx ~owner rest

let rec unlock_keys idx ~owner = function
  | [] -> ()
  | k :: rest ->
      Xenic_store.Nic_index.unlock idx k ~owner;
      unlock_keys idx ~owner rest

(* Unlock each key at the index [node] serves for it. *)
let rec unlock_routed node ~owner = function
  | [] -> ()
  | k :: rest ->
      Xenic_store.Nic_index.unlock (idx_for node k) k ~owner;
      unlock_routed node ~owner rest

(* EXECUTE's reads, in order: each key's (value, version), or
   [Conflict] at the first key another owner has locked. *)
let rec read_all t idx io ~owner = function
  | [] -> []
  | k :: rest -> (
      match Xenic_store.Nic_index.lock_owner idx k with
      | Some o when o <> owner ->
          Xenic_stats.Counter.incr (counters t) "exec_read_locked";
          raise_notrace Conflict
      | _ ->
          let value =
            match Xenic_store.Nic_index.read idx io k with
            | Some (v, seq) -> (k, Some v, seq)
            | None -> (k, None, 0)
          in
          value :: read_all t idx io ~owner rest)

let execute_body t node ~owner ~locks ~reads =
  Smartnic.core_work_held node.nic
    ~ops:(List.length locks + List.length reads)
    ~bytes:0;
  let idx =
    match (locks, reads) with
    | k :: _, _ | [], k :: _ -> idx_for node k
    | [], [] -> invalid_arg "execute_handler: empty request"
  in
  match lock_all idx node.io ~owner locks with
  | exception Conflict ->
      Xenic_stats.Counter.incr (counters t) "exec_lock_conflicts";
      `Fail
  | lock_versions -> (
      match read_all t idx node.io ~owner reads with
      | values -> `Ok (lock_versions, values)
      | exception Conflict ->
          unlock_versions idx ~owner lock_versions;
          `Fail)

(* EXECUTE: lock the shard's write-set keys, read its read-set keys.
   Returns lock versions and read results, or `Fail on any conflict. *)
let execute_handler t node ~owner ~locks ~reads () =
  let cores = Smartnic.cores node.nic in
  Resource.acquire cores;
  let r = execute_body t node ~owner ~locks ~reads in
  Resource.release cores;
  r

(* Every check's key is not locked by another owner and is at its
   expected version. Each check reads the version whatever its lock
   says; the walk stops at the first failing check. *)
let rec checks_hold idx io ~owner = function
  | [] -> true
  | (k, expected) :: rest ->
      let lock_ok =
        match Xenic_store.Nic_index.lock_owner idx k with
        | Some o when o <> owner -> false
        | _ -> true
      in
      let current =
        Option.value ~default:0 (Xenic_store.Nic_index.version idx io k)
      in
      lock_ok && current = expected && checks_hold idx io ~owner rest

let validate_body t node ~owner ~checks =
  Smartnic.core_work_held node.nic ~ops:(List.length checks) ~bytes:0;
  let idx =
    match checks with
    | [] -> invalid_arg "validate_handler: empty request"
    | (k, _) :: _ -> idx_for node k
  in
  let ok = checks_hold idx node.io ~owner checks in
  if not ok then Xenic_stats.Counter.incr (counters t) "validate_conflicts";
  ok

(* VALIDATE: version check for read-only keys. *)
let validate_handler t node ~owner ~checks () =
  let cores = Smartnic.cores node.nic in
  Resource.acquire cores;
  let ok = validate_body t node ~owner ~checks in
  Resource.release cores;
  ok

let log_body t node ~decision ~shard ~seq_ops =
  Smartnic.core_work_held node.nic ~ops:1 ~bytes:0;
  let bytes = Wire.log_record_b ~ops:seq_ops in
  dma_io t.ctl t.p.features node.nic `Write ~bytes;
  Control.append_log t.ctl ~node:node.id node.log ~bytes ~shard ~ops:seq_ops
    decision

(* LOG: append the write set to a backup's host-memory log via DMA.
   [decision] is the transaction's shared commit decision; a resent
   (duplicate) record shares it, and the seq guard in [Storage.apply]
   makes the duplicate apply idempotent. *)
let log_handler t node ~decision ~shard ~seq_ops () =
  let cores = Smartnic.cores node.nic in
  Resource.acquire cores;
  log_body t node ~decision ~shard ~seq_ops;
  Resource.release cores

(* Install each hash-table write in the caching index, one NIC-memory
   access apiece. *)
let rec install_writes node idx = function
  | [] -> ()
  | (op, _) :: rest ->
      let k = Op.key op in
      if not (Keyspace.ordered k) then begin
        Smartnic.mem_access node.nic;
        match op with
        | Op.Put (_, v) -> ignore (Xenic_store.Nic_index.apply_commit idx k v)
        | Op.Delete _ -> Xenic_store.Nic_index.apply_delete idx k
      end;
      install_writes node idx rest

let commit_body t node ~owner ~shard ~seq_ops ~locked =
  Smartnic.core_work_held node.nic ~ops:(List.length seq_ops) ~bytes:0;
  let bytes = Wire.log_record_b ~ops:seq_ops in
  dma_io t.ctl t.p.features node.nic `Write ~bytes;
  (* A COMMIT record is the decision. *)
  Control.append_log t.ctl ~node:node.id node.commit_log ~bytes ~shard
    ~ops:seq_ops (ref Control.Dcommit);
  let idx =
    match seq_ops with
    | [] -> invalid_arg "commit_handler: empty request"
    | (op, _) :: _ -> idx_for node (Op.key op)
  in
  install_writes node idx seq_ops;
  unlock_keys idx ~owner locked

(* COMMIT: append the commit record, install new values and versions in
   the caching index (pinned until the host applies), release locks. *)
let commit_handler t node ~owner ~shard ~seq_ops ~locked () =
  let cores = Smartnic.cores node.nic in
  Resource.acquire cores;
  commit_body t node ~owner ~shard ~seq_ops ~locked;
  Resource.release cores

(* ABORT: release locks acquired during EXECUTE. *)
let abort_handler node ~owner ~locked () =
  let cores = Smartnic.cores node.nic in
  Resource.acquire cores;
  Smartnic.core_work_held node.nic ~ops:(List.length locked) ~bytes:0;
  unlock_routed node ~owner locked;
  Resource.release cores

(* ------------------------------------------------------------------ *)
(* Host-side Robinhood workers (§4.2 step 7) *)

let rec unpin idx = function
  | [] -> ()
  | (op, _) :: rest ->
      let k = Op.key op in
      if not (Keyspace.ordered k) then Xenic_store.Nic_index.host_applied idx k;
      unpin idx rest

(* After applying a COMMIT record the host piggybacks a log ack to the
   NIC so it can unpin the committed cache entries (§4.2 step 7). *)
let unpin_applied node (record : Control.log_record) =
  match node.indexes.(record.lr_shard) with
  | Some idx -> unpin idx record.lr_ops
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Recovery hooks (§4.2.1) *)

(* A lock-free caching index over [storage]'s replica of [shard], cold. *)
let nic_index p storage ~shard =
  Xenic_store.Nic_index.create ~host:(Storage.robinhood storage ~shard)
    ~cache_capacity:(if p.features.caching then p.cache_capacity else 0)
    ()

(* Hints synced from the host table, then prewarmed when caching is
   on. *)
let warm p idx =
  Xenic_store.Nic_index.sync_hints idx;
  if p.features.caching then Xenic_store.Nic_index.prewarm idx

(* A warm caching index over [node]'s replica of [shard]. Lock state
   lives only in a NIC, so every rebuild (promotion, rejoin) starts
   from here. *)
let fresh_index t node ~shard =
  let idx = nic_index t.p node.storage ~shard in
  warm t.p idx;
  idx

let promote t ~shard =
  match
    List.find_opt
      (fun n -> Control.node_alive t.ctl ~node:n)
      (Config.replicas t.ctl.cfg ~shard)
  with
  | None -> invalid_arg "promote: no live replica"
  | Some new_primary ->
      let node = t.nodes.(new_primary) in
      (* Rebuild the caching index over the promoted replica. Lock
         state lived only at the failed primary's NIC (§4.2.1), so the
         fresh index starts lock-free; hints resync from the replica's
         host table. *)
      node.indexes.(shard) <- Some (fresh_index t node ~shard);
      t.ctl.primaries.(shard) <- new_primary;
      new_primary

(* Dead-owner lock sweep over [node]'s caching indexes. *)
let sweep_locks t ~node ~dead =
  Array.fold_left
    (fun broken idx_opt ->
      match idx_opt with
      | None -> broken
      | Some idx ->
          List.fold_left
            (fun broken (k, owner) ->
              if dead owner then begin
                Xenic_store.Nic_index.unlock idx k ~owner;
                broken + 1
              end
              else broken)
            broken
            (Xenic_store.Nic_index.locked_keys idx))
    0 t.nodes.(node).indexes

(* ------------------------------------------------------------------ *)
(* Construction *)

let create engine hw cfg p =
  let ctl =
    Control.create engine hw cfg ~stack:"Xenic" ~partitions:p.partitions
      ~armed:p.armed ~table:(fun () ->
        Storage.Robinhood
          (Xenic_store.Robinhood.create ~segments:p.segments
             ~seg_size:p.seg_size ~d_max:p.d_max ~vsize:Bytes.length))
  in
  let dummy = Control.message ~bytes:0 Control.In_place ignore in
  let nodes =
    Array.init cfg.Config.nodes (fun id ->
        let storage = ctl.storage.(id) in
        let nic = Smartnic.create ~cores:p.nic_threads engine hw in
        Xenic_pcie.Dma.set_vectored (Smartnic.dma nic) p.features.async_dma;
        let indexes = Array.make cfg.Config.nodes None in
        (* Bound in this order, the audit names the backup log first. *)
        let log = Control.host_log ctl ~node:id ~name:"backup log" in
        let commit_log = Control.host_log ctl ~node:id ~name:"commit log" in
        indexes.(id) <- Some (nic_index p storage ~shard:id);
        {
          id;
          nic;
          agg =
            Xenic_net.Aggregator.create ctl.fabric ~src:id
              ~enabled:p.features.eth_aggregation ~dummy;
          storage;
          indexes;
          log;
          commit_log;
          app = Resource.create engine ~name:(Printf.sprintf "app%d" id)
              ~servers:p.app_threads;
          workers =
            Resource.create engine ~name:(Printf.sprintf "wrk%d" id)
              ~servers:p.worker_threads;
          io = index_io ctl p.features nic;
          charge =
            Control.Charged
              (fun k -> Smartnic.core_work_then nic ~ops:1 ~bytes:0 k);
        })
  in
  Array.iter
    (fun node ->
      Control.dispatch_loop ctl ~node:node.id
        ~pkt_io:
          (Some (Smartnic.pkt_io_path node.nic, fun () -> Smartnic.pkt_io_ns node.nic));
      let worker log ~applied =
        Control.log_worker ctl ~node:node.id ~log ~pool:node.workers ~applied
      in
      for _ = 1 to p.worker_threads do
        worker node.log ~applied:ignore;
        worker node.commit_log ~applied:(unpin_applied node)
      done)
    nodes;
  let t = { ctl; hw; p; nodes; tr = transport ctl nodes } in
  (* Recovery's data plane: the successor drains its backup log before
     the promotion's index rebuild snapshots its host table. *)
  if p.armed then
    Control.attach_membership ctl ~sweep_locks:(sweep_locks t)
      ~promote:(fun ~shard ~successor:_ -> promote t ~shard);
  t

(* After the clone, every caching index warms. *)
let seal t =
  Control.seal t.ctl;
  Array.iter
    (fun node ->
      Array.iter (function Some idx -> warm t.p idx | None -> ()) node.indexes)
    t.nodes

(* ------------------------------------------------------------------ *)
(* Coordinator logic *)

(* Like the handlers, the coordinator walks its key lists and results
   with top-level functions, so an attempt allocates the protocol's own
   data (messages, results, written values) and the closures its
   requests and processes need, not one per walk. *)

(* Send LOG to every backup of every written shard as a NIC request;
   await all responses. [decision] is stamped into every appended
   record. *)
let log_phase t ~src seq_ops_by_shard decision =
  Control.replicate t.ctl ~src (Control.log_targets t.ctl seq_ops_by_shard)
    ~send:(fun (shard, backup, seq_ops) ->
      match
        request t ~src ~dst:backup
          ~req_bytes:(Wire.write_ops_b ~ops:seq_ops)
          ~resp_bytes:(fun () -> Wire.small_resp_b)
          (log_handler t t.nodes.(backup) ~decision ~shard ~seq_ops)
      with
      | `Ok () -> true
      | `Down -> false)

(* Where [shard]'s locks were taken, as [(shard, node, keys)]: its
   entry in [acquired], or its current primary with no keys. *)
let rec lock_site t ~shard = function
  | [] -> (shard, primary_of t ~shard, [])
  | ((s, _, _) as site) :: rest -> if s = shard then site else lock_site t ~shard rest

(* Asynchronous COMMIT to each written shard's primary (fire and
   forget with a small ack frame for wire accounting). [locks_by_shard]
   records where each shard's locks were acquired; the commit fence
   guarantees routing has not changed since, so the acquisition node is
   still the primary (or has crashed, in which case the notify is
   dropped and the new values survive via the decided backup records).

   The apply — notify send to commit-handler completion at the primary
   — is the asynchronous "commit-async" phase ([Control.async]), in
   trace category "txn-async", so critical-path extraction never counts
   it inside the synchronous transaction span. *)
let rec commit_shards t a ~t_send ~locks_by_shard = function
  | [] -> ()
  | (shard, seq_ops) :: rest ->
      let src = a.Control.coord and owner = a.owner in
      let _, primary, locked = lock_site t ~shard locks_by_shard in
      notify t Control.In_process ~src ~dst:primary
        ~bytes:(Wire.write_ops_b ~ops:seq_ops) (fun () ->
          Control.async t.ctl a Metrics.Commit_async ~since:t_send
            (commit_handler t t.nodes.(primary) ~owner ~shard ~seq_ops ~locked);
          notify t t.nodes.(src).charge ~src:primary ~dst:src
            ~bytes:Wire.small_resp_b ignore);
      commit_shards t a ~t_send ~locks_by_shard rest

(* Release locks at the node they were acquired at (which may no longer
   be the shard's primary after a promotion; a fresh primary's index
   never saw these locks). Releases to crashed nodes are skipped — the
   lock state died with the NIC. *)
let rec abort_everywhere t a ~locks_by_shard =
  match locks_by_shard with
  | [] -> ()
  | (_shard, primary, locked) :: rest ->
      if locked <> [] && not t.ctl.crashed.(primary) then
        notify t Control.In_process ~src:a.Control.coord ~dst:primary
          ~bytes:(Wire.abort_b ~n_locks:(List.length locked))
          (abort_handler t.nodes.(primary) ~owner:a.owner ~locked);
      abort_everywhere t a ~locks_by_shard:rest

(* The locks of [acquired] on keys [seq_ops] does not write. *)
let rec residual seq_ops = function
  | [] -> []
  | (shard, primary, ks) :: rest -> (
      match Types.unwritten Fun.id seq_ops ks with
      | [] -> residual seq_ops rest
      | ks -> (shard, primary, ks) :: residual seq_ops rest)

(* COMMIT every written shard, then release the locked keys that were
   not written. *)
let commit_and_release t a ~acquired seq_ops seq_ops_by_shard =
  commit_shards t a ~t_send:(Engine.now t.ctl.engine) ~locks_by_shard:acquired
    seq_ops_by_shard;
  match residual seq_ops acquired with
  | [] -> ()
  | locks_by_shard -> abort_everywhere t a ~locks_by_shard

(* -- Standard distributed commit (§4.2), coordinator-side NIC ------- *)

(* A shard's EXECUTE on the DrTM+H-restricted operation set: one
   request per lock, then one per read (§5.7 baseline). A round with
   any `Down or `Fail calls [release] with the results it did get and
   ends the shard; otherwise [k] gets every key's (lock versions,
   values). *)
let execute_per_key t a ~epoch0 ~shard ~primary ~reads ~locks =
  let src = a.Control.coord and owner = a.owner in
  let execute ~req_bytes ~resp_bytes ~locks ~reads =
    request t ~epoch0 ~src ~dst:primary ~req_bytes ~resp_bytes
      (execute_handler t t.nodes.(primary) ~owner ~locks ~reads)
  in
  let round keys request_of ~release k =
    let results =
      Process.parallel t.ctl.engine
        (List.map (fun key () -> request_of key) keys)
    in
    let ok =
      List.filter_map (function `Ok (`Ok x) -> Some x | _ -> None) results
    in
    if List.exists (function `Down -> true | `Ok _ -> false) results
    then begin
      release ok;
      (shard, primary, `Down)
    end
    else if List.length ok < List.length results then begin
      release ok;
      (shard, primary, `Fail)
    end
    else k ok
  in
  (* Releases the locks a lock round acquired. *)
  let release lock_results =
    let acquired =
      List.concat_map (fun (lv, _) -> List.map fst lv) lock_results
    in
    if acquired <> [] && not t.ctl.crashed.(primary) then
      notify t Control.In_process ~src ~dst:primary
        ~bytes:(Wire.abort_b ~n_locks:(List.length acquired))
        (abort_handler t.nodes.(primary) ~owner ~locked:acquired)
  in
  round locks
    (fun key ->
      execute ~req_bytes:Wire.lock_req_b
        ~resp_bytes:(fun _ -> Wire.small_resp_b)
        ~locks:[ key ] ~reads:[])
    ~release
    (fun lock_results ->
      round reads
        (fun key ->
          execute ~req_bytes:Wire.read_req_b ~resp_bytes:Types.execute_resp_b
            ~locks:[] ~reads:[ key ])
        ~release:(fun _ -> release lock_results)
        (fun read_results ->
          ( shard,
            primary,
            `Ok
              ( List.concat_map fst lock_results,
                List.concat_map snd read_results ) )))

(* One shard's EXECUTE. The result carries the primary the request
   targeted, so a later abort can release locks where they were
   acquired even if routing has moved on. [`Down]: the primary timed out
   or the request crossed a reconfiguration — the transaction should
   retry against fresh routing rather than count a conflict. *)
let execute_shard t a ~epoch0 ~shard ~reads ~locks =
  let primary = primary_of t ~shard in
  if t.p.features.smart_ops then
    match
      request t ~epoch0 ~src:a.Control.coord ~dst:primary
        ~req_bytes:
          (Wire.execute_req_b ~n_reads:(List.length reads)
             ~n_locks:(List.length locks) ~state_bytes:0)
        ~resp_bytes:Types.execute_resp_b
        (execute_handler t t.nodes.(primary) ~owner:a.owner ~locks ~reads)
    with
    | `Ok `Fail -> (shard, primary, `Fail)
    | `Ok (`Ok x) -> (shard, primary, `Ok x)
    | `Down -> (shard, primary, `Down)
  else execute_per_key t a ~epoch0 ~shard ~primary ~reads ~locks

let head_shard = function (s, _) :: _ -> s | [] -> max_int

let on_shard s = function (s', xs) :: _ when s' = s -> xs | _ -> []

let past_shard s = function (s', _) :: more when s' = s -> more | l -> l

(* One EXECUTE thunk per shard, shards ascending: [reads_by_shard] and
   [locks_by_shard] are each ascending ({!Types.group_by_shard}), so a
   merge pairs a shard's reads with its locks. *)
let rec execute_thunks t a ~epoch0 reads_by_shard locks_by_shard =
  let r = head_shard reads_by_shard and l = head_shard locks_by_shard in
  let shard = if r < l then r else l in
  if shard = max_int then []
  else
    let reads = on_shard shard reads_by_shard
    and locks = on_shard shard locks_by_shard in
    (fun () -> execute_shard t a ~epoch0 ~shard ~reads ~locks)
    :: execute_thunks t a ~epoch0
         (past_shard shard reads_by_shard)
         (past_shard shard locks_by_shard)

(* Per-shard EXECUTE, in parallel. *)
let execute_phase t a ~epoch0 ~reads_by_shard ~locks_by_shard =
  Process.parallel t.ctl.engine
    (execute_thunks t a ~epoch0 reads_by_shard locks_by_shard)

let as_verdict = function
  | `Ok true -> `Valid
  | `Ok false -> `Invalid
  | `Down -> `Down

(* Any [`Down] wins, then any [`Invalid]. *)
let rec verdict_of acc = function
  | [] -> acc
  | `Down :: _ -> `Down
  | `Invalid :: rest -> verdict_of `Invalid rest
  | `Valid :: rest -> verdict_of acc rest

let validate_shard t a ~epoch0 ~shard checks =
  let src = a.Control.coord and owner = a.owner in
  let primary = primary_of t ~shard in
  if t.p.features.smart_ops then
    as_verdict
      (request t ~epoch0 ~src ~dst:primary
         ~req_bytes:(Wire.validate_req_b ~n_checks:(List.length checks))
         ~resp_bytes:(fun _ -> Wire.small_resp_b)
         (validate_handler t t.nodes.(primary) ~owner ~checks))
  else
    verdict_of `Valid
      (Process.parallel t.ctl.engine
         (List.map
            (fun check () ->
              as_verdict
                (request t ~epoch0 ~src ~dst:primary
                   ~req_bytes:(Wire.validate_req_b ~n_checks:1)
                   ~resp_bytes:(fun _ -> Wire.small_resp_b)
                   (validate_handler t t.nodes.(primary) ~owner
                      ~checks:[ check ])))
            checks))

let rec validate_thunks t a ~epoch0 = function
  | [] -> []
  | (shard, checks) :: rest ->
      (fun () -> validate_shard t a ~epoch0 ~shard checks)
      :: validate_thunks t a ~epoch0 rest

let validate_phase t a ~epoch0 checks =
  verdict_of `Valid
    (Process.parallel t.ctl.engine
       (validate_thunks t a ~epoch0 (Types.group_by_shard fst checks)))

(* Run the transaction's execution function at the right place. The
   caller is on the coordinator NIC. *)
let run_exec t node (txn : Types.t) view =
  if t.p.features.nic_exec && txn.ship_exec then begin
    Resource.acquire (Smartnic.cores node.nic);
    Process.sleep t.ctl.engine (Smartnic.scaled_exec_ns node.nic txn.host_exec_ns);
    let ops = txn.exec view in
    Resource.release (Smartnic.cores node.nic);
    ops
  end
  else begin
    (* NIC -> host -> NIC crossing, host-side execution. *)
    Smartnic.host_msg node.nic;
    Resource.acquire node.app;
    Process.sleep t.ctl.engine txn.host_exec_ns;
    let ops = txn.exec view in
    Resource.release node.app;
    Smartnic.host_msg node.nic;
    ops
  end

let rec keys_of = function [] -> [] | (k, _) :: rest -> k :: keys_of rest

(* The shards an EXECUTE round locked keys at, as [(shard, primary,
   keys)]. *)
let rec acquired_of = function
  | [] -> []
  | (shard, primary, `Ok ((_ :: _ as lv), _)) :: rest ->
      (shard, primary, keys_of lv) :: acquired_of rest
  | _ :: rest -> acquired_of rest

(* The lock versions, then the values, of a round's results in shard
   order; the last shard's list is shared, not copied. *)
let rec lock_versions_of = function
  | [] -> []
  | (_, _, `Ok (lv, _)) :: rest -> (
      match lock_versions_of rest with [] -> lv | more -> lv @ more)
  | _ :: rest -> lock_versions_of rest

let rec values_of = function
  | [] -> []
  | (_, _, `Ok (_, vs)) :: rest -> (
      match values_of rest with [] -> vs | more -> vs @ more)
  | _ :: rest -> values_of rest

let rec any_result r = function
  | [] -> false
  | (_, _, r') :: rest -> r' = r || any_result r rest

(* A `Down shard's EXECUTE may still have locked its keys at a live
   primary after the coordinator stopped listening (the response was
   dropped at an epoch bump). Broaden the abort to the whole requested
   footprint at current routing — unlock is owner-guarded, so releasing
   a lock never taken is a no-op. *)
let broaden t acquired requested =
  List.fold_left
    (fun acc (shard, keys) ->
      match List.partition (fun (s, _, _) -> s = shard) acc with
      | [ (_, p, ks) ], rest ->
          let missing = List.filter (fun k -> not (List.mem k ks)) keys in
          (shard, p, missing @ ks) :: rest
      | _, rest ->
          if keys = [] then acc else (shard, primary_of t ~shard, keys) :: rest)
    acquired requested

(* How an EXECUTE round ends the attempt, if it does: any [`Down]
   aborts the broadened footprint and retries, any [`Fail] aborts what
   was acquired. *)
let settle t a results ~acquired ~requested =
  if any_result `Down results then begin
    abort_everywhere t a ~locks_by_shard:(broaden t acquired requested);
    Some (`Retry Metrics.Timeout)
  end
  else if any_result `Fail results then begin
    abort_everywhere t a ~locks_by_shard:acquired;
    Some (`Aborted Metrics.Lock_conflict)
  end
  else None

let merge_acquired acquired extra =
  List.fold_left
    (fun acc (shard, primary, ks) ->
      match List.partition (fun (s, _, _) -> s = shard) acc with
      | [ (_, p, prev) ], rest -> (shard, p, ks @ prev) :: rest
      | _, rest -> (shard, primary, ks) :: rest)
    acquired extra

(* VALIDATE's checks: the keys read but never locked, against their
   execute-time versions. *)
let rec checks_of locked = function
  | [] -> []
  | (k, _, seq) :: rest ->
      if List.mem k locked then checks_of locked rest
      else (k, seq) :: checks_of locked rest

(* Multi-shot execution (§4.2 step 3): each round may request more
   keys; the coordinator issues further EXECUTE requests and re-invokes
   the function over the extended view, up to [max_exec_rounds]. *)
let max_exec_rounds = 8

let rec exec_rounds t node (txn : Types.t) a ~epoch0 ~values ~lock_versions
    ~acquired ~locked_keys ~requested ~round : Control.outcome =
  Control.enter t.ctl a Metrics.Exec_fn;
  match run_exec t node txn (Types.view_of values) with
  | Types.More _ when round >= max_exec_rounds ->
      Xenic_stats.Counter.incr (counters t) "multishot_overflow";
      abort_everywhere t a ~locks_by_shard:acquired;
      (* A round-budget overflow is footprint growth the lock
         acquisition could not keep up with; taxonomy-wise it is a
         lock-conflict abort (see DESIGN.md §8). *)
      `Aborted Metrics.Lock_conflict
  | Types.More { read; lock } -> (
      Xenic_stats.Counter.incr (counters t) "multishot_rounds";
      let read = Types.without locked_keys read in
      let lock = Types.without locked_keys lock in
      Control.enter t.ctl a Metrics.Execute;
      let extra =
        execute_phase t a ~epoch0
          ~reads_by_shard:(Types.group_by_shard Fun.id read)
          ~locks_by_shard:(Types.group_by_shard Fun.id lock)
      in
      let acquired = merge_acquired acquired (acquired_of extra) in
      let requested = Types.group_by_shard Fun.id lock @ requested in
      match settle t a extra ~acquired ~requested with
      | Some outcome -> outcome
      | None ->
          exec_rounds t node txn a ~epoch0
            ~values:(values @ values_of extra)
            ~lock_versions:(lock_versions @ lock_versions_of extra)
            ~acquired
            ~locked_keys:(locked_keys @ lock)
            ~requested
            ~round:(round + 1))
  | Types.Done ops ->
      Control.finish t.ctl a ~epoch0 ~values ~lock_versions
        ~checks:(checks_of locked_keys values)
        ~validate:(validate_phase t a ~epoch0)
        ~release:(fun () -> abort_everywhere t a ~locks_by_shard:acquired)
        ~log:(log_phase t ~src:a.coord)
        ~commit:(commit_and_release t a ~acquired)
        ops

(* One attempt of the standard distributed commit. [`Retry]: the
   attempt ran into a dead or reconfigured peer — locks on surviving
   primaries have been released; the caller should back off and retry
   against fresh routing (armed mode only). Aborts and retries carry
   their taxonomy reason. *)
let distributed_txn t node (txn : Types.t) a : Control.outcome =
  let epoch0 = t.ctl.epoch in
  let reads_by_shard = Types.group_by_shard Fun.id txn.read_set in
  let locks_by_shard = Types.group_by_shard Fun.id txn.write_set in
  let results = execute_phase t a ~epoch0 ~reads_by_shard ~locks_by_shard in
  let acquired = acquired_of results in
  match settle t a results ~acquired ~requested:locks_by_shard with
  | Some outcome -> outcome
  | None ->
      exec_rounds t node txn a ~epoch0 ~values:(values_of results)
        ~lock_versions:(lock_versions_of results) ~acquired
        ~locked_keys:txn.write_set ~requested:locks_by_shard ~round:1

(* -- Multi-hop OCC (§4.2.3) ----------------------------------------- *)

let rec all_written write_set = function
  | [] -> true
  | k :: rest -> List.mem k write_set && all_written write_set rest

(* At most one shard served by [node] ([local]) and exactly one served
   elsewhere ([remote]); -1: none seen yet. *)
let rec two_party t ~node ~local ~remote = function
  | [] -> remote >= 0
  | k :: rest ->
      let s = Keyspace.shard k in
      if primary_of t ~shard:s = node then
        (local < 0 || local = s) && two_party t ~node ~local:s ~remote rest
      else (remote < 0 || remote = s) && two_party t ~node ~local ~remote:s rest

(* Eligibility: a single execution round (always true in this model), a
   read set covered by the write set (all accesses locked during
   EXECUTE, so no VALIDATE phase is needed), and at most two shards
   with one of them local — or a single remote shard. The read set
   being covered, the write set's shards are all the shards. *)
let multihop_eligible t node (txn : Types.t) =
  t.p.features.multihop
  (* The multi-hop ack fan-in (LOG responses routed to P1) is not
     crash-safe; when timeouts are armed, everything takes the standard
     distributed path, whose phases are individually retryable. *)
  && (not t.p.armed)
  && all_written txn.write_set txn.read_set
  && txn.write_set <> []
  (* One remote shard, and at most one shard served by the coordinator
     itself (so P1 commits a single-shard record). *)
  && two_party t ~node:node.id ~local:(-1) ~remote:(-1) txn.write_set

(* The keys of [keys] whose shard [node] serves ([served = true]) or
   does not. *)
let rec keys_at t ~node ~served = function
  | [] -> []
  | k :: rest ->
      if (primary_of t ~shard:(Keyspace.shard k) = node) = served then
        k :: keys_at t ~node ~served rest
      else keys_at t ~node ~served rest

(* [keys] split by whether [node] serves their shard, in order. *)
let split_at t ~node keys =
  match keys_at t ~node ~served:true keys with
  | [] -> ([], keys)
  | local -> (local, keys_at t ~node ~served:false keys)

(* The writes of [seq_ops] whose shard [node] serves. *)
let rec writes_at t ~node = function
  | [] -> []
  | ((op, _) as w) :: rest ->
      if primary_of t ~shard:(Keyspace.shard (Op.key op)) = node then
        w :: writes_at t ~node rest
      else writes_at t ~node rest

let rec writes_on ~shard = function
  | [] -> []
  | ((op, _) as w) :: rest ->
      if Keyspace.shard (Op.key op) = shard then w :: writes_on ~shard rest
      else writes_on ~shard rest

(* The bytes of the values P1 read, shipped to P2 with the execution
   state. *)
let rec shipped_b acc = function
  | [] -> acc
  | (_, v, _) :: rest ->
      shipped_b (acc + match v with Some b -> Bytes.length b | None -> 0) rest

(* A multi-hop transaction in flight: what P2's handler, its LOG
   fan-out and the acknowledgements at P1 share, so each of their
   closures captures this record and at most one target. *)
type hop = {
  sys : t;
  p1 : node;
  h_txn : Types.t;
  h_attempt : Control.attempt;
  p2 : int;
  remote_shard : int;
  remote_keys : Keyspace.t list;
  remote_reads : Keyspace.t list;
  local_lockv : (Keyspace.t * int) list;
  local_values : (Keyspace.t * bytes option * int) list;
  mutable resume : [ `Fail | `Multishot | `Ok ] -> unit;
  mutable expected : int;  (* LOG responses still due at P1 *)
  mutable exec_done : bool;  (* P2's ExecDone has reached P1 *)
  mutable logged : unit -> unit;  (* one LOG response at P1, built once *)
  mutable p1_seq_ops : (Op.t * int) list;
  mutable p2_seq_ops : (Op.t * int) list;
  mutable remote_lockv : (Keyspace.t * int) list;
  mutable remote_values : (Keyspace.t * bytes option * int) list;
}

(* P1 resumes once every LOG response and the ExecDone are in. *)
let hop_ready h = if h.expected = 0 && h.exec_done then h.resume `Ok

let hop_logged h =
  h.expected <- h.expected - 1;
  hop_ready h

let hop_exec_done h =
  h.exec_done <- true;
  hop_ready h

(* LOG from P2 to each backup; the responses go to P1. *)
let rec hop_log h = function
  | [] -> ()
  | ((_, backup, seq_ops) as target) :: rest ->
      notify h.sys Control.In_process ~src:h.p2 ~dst:backup
        ~bytes:(Wire.write_ops_b ~ops:seq_ops) (fun () -> hop_log_at h target);
      hop_log h rest

and hop_log_at h (shard, backup, seq_ops) =
  let t = h.sys in
  log_handler t t.nodes.(backup) ~decision:(ref Control.Dcommit) ~shard ~seq_ops ();
  notify t h.p1.charge ~src:backup ~dst:h.p1.id ~bytes:Wire.small_resp_b h.logged

(* P2, in a handler process at its NIC: lock and read the remote keys,
   run the function, LOG every write set with the responses routed to
   P1, and send P1 the local shard's writes (ExecDone). The attempt's
   execute phase runs until the LOG fan-out starts here. *)
let hop_remote h =
  let t = h.sys and src = h.p1.id and owner = h.h_attempt.owner in
  let p2_node = t.nodes.(h.p2) in
  match
    execute_handler t p2_node ~owner ~locks:h.remote_keys ~reads:h.remote_reads ()
  with
  | `Fail ->
      notify t Control.In_place ~src:h.p2 ~dst:src ~bytes:Wire.small_resp_b
        (fun () -> h.resume `Fail)
  | `Ok (remote_lockv, remote_values) -> (
      (* Execute at the remote primary NIC; multi-hop is limited to
         single-round execution (§4.2.3), so a More escalates back to
         the coordinator. *)
      Resource.acquire (Smartnic.cores p2_node.nic);
      Process.sleep t.ctl.engine
        (Smartnic.scaled_exec_ns p2_node.nic h.h_txn.host_exec_ns);
      let exec_result =
        h.h_txn.exec (Types.view_of (h.local_values @ remote_values))
      in
      Resource.release (Smartnic.cores p2_node.nic);
      match exec_result with
      | Types.More _ ->
          unlock_routed p2_node ~owner (keys_of remote_lockv);
          notify t Control.In_place ~src:h.p2 ~dst:src ~bytes:Wire.small_resp_b
            (fun () -> h.resume `Multishot)
      | Types.Done ops ->
          let lock_versions = h.local_lockv @ remote_lockv in
          let seq_ops = Types.seq_ops_of ~lock_versions ops in
          let backups =
            Control.log_targets t.ctl (Types.group_ops_by_shard seq_ops)
          in
          h.expected <- List.length backups;
          h.p1_seq_ops <- writes_at t ~node:src seq_ops;
          h.p2_seq_ops <- writes_on ~shard:h.remote_shard seq_ops;
          h.remote_lockv <- remote_lockv;
          h.remote_values <- remote_values;
          Control.enter t.ctl h.h_attempt Metrics.Log;
          hop_log h backups;
          (* ExecDone to P1 with the local shard's writes. *)
          notify t h.p1.charge ~src:h.p2 ~dst:src
            ~bytes:(Wire.write_ops_b ~ops:h.p1_seq_ops) (fun () ->
              hop_exec_done h))

(* Ship execution to P2; [resume] is P1's. *)
let hop_ship h resume =
  h.resume <- resume;
  let t = h.sys in
  let ship_bytes =
    Wire.execute_req_b ~n_reads:(List.length h.remote_keys)
      ~n_locks:(List.length h.remote_keys)
      ~state_bytes:(h.h_txn.state_bytes + shipped_b 0 h.local_values)
  in
  notify t Control.In_process ~src:h.p1.id ~dst:h.p2 ~bytes:ship_bytes (fun () ->
      hop_remote h)

(* The coordinator P1 locks+reads its local keys at its own NIC, ships
   execution to the remote primary P2; P2 locks+reads its keys, runs
   the function, LOGs all write sets with responses routed to P1, and
   sends P1 the local shard's new values. P1 commits locally and sends
   P2 its COMMIT. One network message delay shorter than the
   request/response pattern (Fig 7). *)
let rec multihop_txn t node (txn : Types.t) a : Control.outcome =
  let owner = a.Control.owner in
  let src = node.id in
  let local_keys, remote_keys = split_at t ~node:src txn.write_set in
  let local_reads, remote_reads = split_at t ~node:src txn.read_set in
  let remote_shard =
    match remote_keys with
    | k :: _ -> Keyspace.shard k
    | [] -> invalid_arg "multihop_txn: not eligible"
  in
  let local_shard =
    match local_keys with k :: _ -> Some (Keyspace.shard k) | [] -> None
  in
  let p2 = primary_of t ~shard:remote_shard in
  (* Lock and read the local keys at our own NIC index. *)
  let local_result =
    if local_keys = [] then `Ok ([], [])
    else execute_handler t node ~owner ~locks:local_keys ~reads:local_reads ()
  in
  match local_result with
  | `Fail -> `Aborted Metrics.Lock_conflict
  | `Ok (local_lockv, local_values) -> (
      let h =
        {
          sys = t;
          p1 = node;
          h_txn = txn;
          h_attempt = a;
          p2;
          remote_shard;
          remote_keys;
          remote_reads;
          local_lockv;
          local_values;
          resume = ignore;
          expected = 0;
          exec_done = false;
          logged = ignore;
          p1_seq_ops = [];
          p2_seq_ops = [];
          remote_lockv = [];
          remote_values = [];
        }
      in
      h.logged <- (fun () -> hop_logged h);
      (* Expected completions at P1: one LOG response per backup of
         each written shard, plus P2's ExecDone. *)
      match Process.suspend (fun resume -> hop_ship h resume) with
      | (`Fail | `Multishot) as result ->
          if local_lockv <> [] then
            abort_handler node ~owner ~locked:(keys_of local_lockv) ();
          if result = `Multishot then begin
            (* Single-round restriction: replay through the standard
               distributed path, which supports multi-shot execution.
               The replay only runs un-armed (multi-hop eligibility
               requires it), so [`Retry] cannot occur. *)
            Xenic_stats.Counter.incr (counters t) "multihop_escalations";
            distributed_txn t node txn a
          end
          else `Aborted Metrics.Lock_conflict
      | `Ok -> multihop_commit t node a h ~local_shard ~local_keys)

(* Committed. Apply the local commit at our own NIC and send COMMIT to
   P2 asynchronously. *)
and multihop_commit t node a h ~local_shard ~local_keys =
  let owner = a.Control.owner and src = node.id and p2 = h.p2 in
  Control.enter t.ctl a Metrics.Commit;
  (match (h.p1_seq_ops, local_shard) with
  | (_ :: _ as seq_ops), Some shard ->
      commit_handler t node ~owner ~shard ~seq_ops ~locked:local_keys ()
  | [], _ when local_keys <> [] -> abort_handler node ~owner ~locked:local_keys ()
  | _ -> ());
  (if h.p2_seq_ops <> [] then
     let t_send = Engine.now t.ctl.engine in
     notify t Control.In_process ~src ~dst:p2
       ~bytes:(Wire.write_ops_b ~ops:h.p2_seq_ops) (fun () ->
         Control.async t.ctl a Metrics.Commit_async ~since:t_send
           (commit_handler t t.nodes.(p2) ~owner ~shard:h.remote_shard
              ~seq_ops:h.p2_seq_ops ~locked:h.remote_keys))
   else if h.remote_keys <> [] then
     notify t Control.In_process ~src ~dst:p2
       ~bytes:(Wire.abort_b ~n_locks:(List.length h.remote_keys))
       (abort_handler t.nodes.(p2) ~owner ~locked:h.remote_keys));
  (* The oracle's report, built only when one is attached. *)
  if Option.is_some t.ctl.oracle then
    Control.record_commit t.ctl ~id:owner
      ~values:(h.local_values @ h.remote_values)
      ~lock_versions:(h.local_lockv @ h.remote_lockv)
      ~seq_ops:(h.p1_seq_ops @ h.p2_seq_ops);
  `Committed

(* -- Local fast path (§4.2.4) --------------------------------------- *)

(* A committed local transaction applies its commit at the coordinator's
   own NIC asynchronously. *)
let commit_local t node a ~shard ~seq_ops ~locked =
  let t_send = Engine.now t.ctl.engine and owner = a.Control.owner in
  Process.spawn t.ctl.engine (fun () ->
      Control.async t.ctl a Metrics.Commit_async ~since:t_send
        (commit_handler t node ~owner ~shard ~seq_ops ~locked))

(* The host's optimistic reads: a host operation apiece, in order. *)
let rec host_reads t node = function
  | [] -> []
  | k :: rest ->
      Process.sleep t.ctl.engine t.hw.host_op_ns;
      let value =
        match Storage.read node.storage k with
        | Some (v, seq) -> (k, Some v, seq)
        | None -> (k, None, 0)
      in
      value :: host_reads t node rest

(* A read-only local transaction's re-check at the host. *)
let rec host_versions_hold storage = function
  | [] -> true
  | (k, _, seq) :: rest ->
      (match Storage.read storage k with
      | Some (_, seq') -> seq' = seq
      | None -> seq = 0)
      && host_versions_hold storage rest

(* The host-read versions against the NIC's authoritative metadata:
   ordered keys pass, a key another owner locked fails. *)
let rec nic_versions_hold idx io ~owner = function
  | [] -> true
  | (k, _, host_seq) :: rest ->
      (Keyspace.ordered k
      ||
      match Xenic_store.Nic_index.lock_owner idx k with
      | Some o when o <> owner -> false
      | _ ->
          Option.value ~default:0 (Xenic_store.Nic_index.version idx io k)
          = host_seq)
      && nic_versions_hold idx io ~owner rest

(* At the coordinator's NIC, with a core held: lock the write set, then
   validate the host reads. *)
let lock_local t node ~owner (txn : Types.t) values =
  Smartnic.core_work_held node.nic ~ops:(List.length txn.write_set) ~bytes:0;
  let idx =
    match txn.write_set with
    | [] -> invalid_arg "local_txn: no writes"
    | k :: _ -> idx_for node k
  in
  match lock_all idx node.io ~owner txn.write_set with
  | exception Conflict -> `Lock_fail
  | lockv ->
      if nic_versions_hold idx node.io ~owner values then `Ok lockv
      else begin
        unlock_versions idx ~owner lockv;
        Xenic_stats.Counter.incr (counters t) "validate_conflicts_local_w";
        `Validate_fail
      end

(* A local transaction that writes: lock and validate at the local NIC,
   then replicate and commit. *)
let local_write t node ~shard (txn : Types.t) a ~epoch0 values ops =
  let owner = a.Control.owner and src = node.id in
  (* Ship the transaction state to the local NIC (one PCIe crossing). *)
  Control.enter t.ctl a Metrics.Validate;
  Smartnic.host_msg node.nic;
  let cores = Smartnic.cores node.nic in
  Resource.acquire cores;
  let lock_result = lock_local t node ~owner txn values in
  Resource.release cores;
  match lock_result with
  | `Lock_fail ->
      Smartnic.host_msg node.nic;
      `Aborted Metrics.Lock_conflict
  | `Validate_fail ->
      Smartnic.host_msg node.nic;
      `Aborted Metrics.Validation_failure
  | `Ok lock_versions ->
      let seq_ops = Types.seq_ops_of ~lock_versions ops in
      let result =
        Control.commit_point t.ctl a ~epoch0
          ~log:(log_phase t ~src [ (shard, seq_ops) ])
          ~commit:(fun () ->
            Control.record_commit t.ctl ~id:owner ~values ~lock_versions
              ~seq_ops;
            commit_local t node a ~shard ~seq_ops ~locked:txn.write_set)
          ~abort:(abort_handler node ~owner ~locked:txn.write_set)
      in
      (* The outcome crosses back to the host — unless the coordinator
         crashed mid-LOG, taking its NIC with it. *)
      (match result with
      | `Aborted Metrics.Crashed_owner -> ()
      | _ -> Smartnic.host_msg node.nic);
      result

(* Local transactions execute optimistically on the host against the
   host-side structures; write transactions then lock/validate at the
   local NIC index before replicating. *)
let local_txn t node ~shard (txn : Types.t) a : Control.outcome =
  let epoch0 = t.ctl.epoch in
  Resource.acquire node.app;
  let values = host_reads t node txn.read_set in
  Process.sleep t.ctl.engine txn.host_exec_ns;
  let exec_result = txn.exec (Types.view_of values) in
  Resource.release node.app;
  match exec_result with
  | Types.More _ ->
      (* Multi-shot transactions leave the fast path; no locks are held
         yet, so simply replay through the distributed protocol. *)
      Xenic_stats.Counter.incr (counters t) "multihop_escalations";
      Smartnic.host_msg node.nic;
      let result = distributed_txn t node txn a in
      Smartnic.host_msg node.nic;
      result
  | Types.Done [] when txn.write_set = [] ->
      (* Read-only local transaction: re-check versions at the host. *)
      Control.enter t.ctl a Metrics.Validate;
      if host_versions_hold node.storage values then begin
        Control.record_commit t.ctl ~id:a.owner ~values ~lock_versions:[]
          ~seq_ops:[];
        `Committed
      end
      else begin
        Xenic_stats.Counter.incr (counters t) "validate_conflicts_local_ro";
        `Aborted Metrics.Validation_failure
      end
  | Types.Done ops -> local_write t node ~shard txn a ~epoch0 values ops

(* ------------------------------------------------------------------ *)
(* Entry point *)

let route t n (txn : Types.t) a =
  match Types.single_shard txn with
  | Some s when primary_of t ~shard:s = n.id ->
      Xenic_stats.Counter.incr (counters t) "txns_local";
      local_txn t n ~shard:s txn a
  | _ ->
      if multihop_eligible t n txn then begin
        Xenic_stats.Counter.incr (counters t) "txns_multihop";
        multihop_txn t n txn a
      end
      else begin
        Xenic_stats.Counter.incr (counters t) "txns_distributed";
        (* Host -> coordinator NIC crossing, protocol on the NIC, and
           the Committed/Aborted report back to the host. *)
        Smartnic.host_msg n.nic;
        let result = distributed_txn t n txn a in
        Smartnic.host_msg n.nic;
        result
      end

let run_txn t ~node (txn : Types.t) =
  let n = t.nodes.(node) in
  Control.run_txn t.ctl ~node (fun a -> route t n txn a)

(* After [Control.quiesce] every NIC index must be lock-free and every
   host log drained. *)
let audit t =
  Control.audit t.ctl ~locked:(fun ~node ->
      Array.fold_right
        (fun idx_opt acc ->
          match idx_opt with
          | Some idx -> Xenic_store.Nic_index.locked_keys idx @ acc
          | None -> acc)
        t.nodes.(node).indexes [])

(* -- Reconfiguration (§4.2.1) --------------------------------------- *)

(* Epoch-fenced rejoin of a node that crashed and returned within its
   lease window (a "flap"). The node is still primary of its shards —
   no declaration ever moved them — but during the outage it missed
   COMMIT applications and backup LOG records (both are dropped at a
   crashed node), and its NIC SRAM state (locks, hints, cache) died
   with the crash. A blind un-crash would serve stale data and leaked
   locks; sweeping the locks alone would break live owners. Instead:

   - the epoch was bumped and the commit fence closed at the recover
     instant, so every transaction that executed against the node's
     pre-crash or mid-crash view aborts at its fence check;
   - once in-flight commits resolve and the live replicas' logs drain,
     each shard the node holds is copied back from a live holder
     ([Storage.sync_shard]) — the decided writes it missed are all in
     those replicas by the time the fence is quiet;
   - its caching indexes are rebuilt lock-free over the repaired host
     tables, exactly like a promotion's index rebuild;
   - only then does the node start answering again. *)
let rejoin t ~node =
  Control.wait_fence t.ctl;
  Control.trace_instant t.ctl ~cat:"recovery" ~name:"rejoin-start" ~pid:node
    ~tid:0 [ ("epoch", string_of_int t.ctl.epoch) ];
  (* The node's coordinators died with their in-flight transactions;
     the ones that crashed mid-LOG never run an abort round, so their
     locks at live primaries survive ("swept at the declaration" — but
     a flap never declares). Sweep them here, while [crashed.(node)] is
     still set: the owner token identifies the dead coordinator, and a
     late unlock from a straggler is owner-guarded. *)
  Control.sweep_dead_owner_locks t.ctl ~sweep_locks:(sweep_locks t);
  let n = t.nodes.(node) in
  (* Repair every shard this node replicates from a live holder. The
     fence is quiet, so draining the source's logs first makes its host
     table a complete image of the decided history. *)
  for shard = 0 to t.ctl.cfg.Config.nodes - 1 do
    if Storage.holds n.storage ~shard then begin
      match
        List.find_opt
          (fun r -> r <> node && t.ctl.alive.(r) && not t.ctl.crashed.(r))
          (Config.replicas t.ctl.cfg ~shard)
      with
      | None -> ()  (* no live source (rf = 1): local image stands *)
      | Some src ->
          let src_node = t.nodes.(src) in
          let rec drain log =
            if not (Xenic_store.Hostlog.drained log) then begin
              Process.sleep t.ctl.engine 1_000.0;
              drain log
            end
          in
          drain src_node.log;
          drain src_node.commit_log;
          Storage.sync_shard ~from:src_node.storage n.storage ~shard
    end
  done;
  (* NIC SRAM died with the crash: rebuild each caching index over the
     repaired host table (promotion's rebuild, applied to the returning
     node itself). *)
  Array.iteri
    (fun shard idx_opt ->
      if Option.is_some idx_opt then
        n.indexes.(shard) <- Some (fresh_index t n ~shard))
    n.indexes;
  (* Only un-crash if the node is still in the configuration: if the
     lease slipped away mid-rejoin and the node was declared, the
     declaration wins and the node stays out (fail-stop discipline). *)
  if t.ctl.alive.(node) then begin
    (* The span from the fence wait to here holds [crashed.(node)] true
       deliberately: nothing else can clear it (crash_node only sets
       it, and a declaration would have cleared [alive] instead), so
       the read-modify-write is single-writer despite the suspensions. *)
    (* xenic-lint: atomic rejoin-uncrash *)
    t.ctl.crashed.(node) <- false;
    Xenic_stats.Counter.incr (counters t) "node_rejoins"
  end;
  t.ctl.recovery_waiting <- t.ctl.recovery_waiting - 1;
  Control.trace_instant t.ctl ~cat:"recovery" ~name:"rejoin-done" ~pid:node ~tid:0
    [ ("epoch", string_of_int t.ctl.epoch) ]

(* Recovery of a crashed node. Two regimes:
   - flap (still within its lease, never declared): epoch-fenced rejoin
     with replica repair, see [rejoin];
   - already declared dead: refused — the epoch moved past the node and
     re-admitting it under its old identity would hand out stale-epoch
     promotions. The refusal is counted, not raised, so scenario runs
     that race a recovery against a declaration stay well-defined. *)
let recover_node t ~node =
  if t.ctl.crashed.(node) then begin
    let membership_ok =
      match t.ctl.membership with
      | Some m -> Membership.recover_node m ~node
      | None -> false  (* no membership: a crash is an immediate removal *)
    in
    if (not membership_ok) || not t.ctl.alive.(node) then
      Control.refuse_rejoin t.ctl ~node
    else begin
      (* Freeze commits and invalidate every in-flight transaction's
         view synchronously, before any event of the rejoin runs — the
         same atomic step a declaration performs. *)
      t.ctl.epoch <- t.ctl.epoch + 1;
      t.ctl.recovery_waiting <- t.ctl.recovery_waiting + 1;
      Control.trace_instant t.ctl ~cat:"recovery" ~name:"recover" ~pid:node ~tid:0
        [ ("epoch", string_of_int t.ctl.epoch) ];
      Process.spawn t.ctl.engine (fun () -> rejoin t ~node)
    end
  end

let set_nic_slowdown t ~node f = Smartnic.set_slowdown t.nodes.(node).nic f

let degrade_nic_cores t ~node ~n ~dur_ns =
  Smartnic.degrade_cores t.nodes.(node).nic ~n ~dur_ns

(* Admission backpressure: the coordinator NIC's instantaneous ingress
   occupancy. *)
let ingress_occupancy t ~node = Smartnic.ingress_occupancy t.nodes.(node).nic

(* Instantaneous-occupancy gauges for the trace sampler: one source per
   node per resource class (NIC cores, DMA queues, links, host pools). *)
let util_sources t =
  Array.to_list t.nodes
  |> List.concat_map (fun n ->
         [
           ( Printf.sprintf "node%d nic cores" n.id,
             fun () -> float_of_int (Resource.in_use (Smartnic.cores n.nic)) );
           ( Printf.sprintf "node%d dma queues" n.id,
             fun () ->
               float_of_int (Xenic_pcie.Dma.queues_busy (Smartnic.dma n.nic)) );
           ( Printf.sprintf "node%d link" n.id,
             fun () ->
               float_of_int (Xenic_net.Fabric.link_busy t.ctl.fabric ~node:n.id) );
           ( Printf.sprintf "node%d app pool" n.id,
             fun () -> float_of_int (Resource.in_use n.app) );
           ( Printf.sprintf "node%d worker pool" n.id,
             fun () -> float_of_int (Resource.in_use n.workers) );
         ])

(* Every contended resource in the system, labeled for the profiler.
   Device-level names are per-device, so they get a node prefix here;
   fabric and host-pool names are already node-unique. *)
let resources t =
  let per_node =
    Array.to_list t.nodes
    |> List.concat_map (fun n ->
           List.map
             (fun r -> (Printf.sprintf "n%d/%s" n.id (Resource.name r), r))
             (Smartnic.resources n.nic)
           @ [ (Resource.name n.app, n.app); (Resource.name n.workers, n.workers) ])
  in
  let fabric =
    List.map
      (fun r -> (Resource.name r, r))
      (Xenic_net.Fabric.resources t.ctl.fabric)
  in
  per_node @ fabric
