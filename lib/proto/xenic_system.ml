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
      (* > 0: install a windowed conservative-PDES topology over this
         many node partitions (lookahead = the fabric wire latency) and
         shard metrics and the oracle feed per partition, so open-loop
         generators on different partitions never touch shared mutable
         state. 0 (default): the single-heap engine, whatever its domain
         budget, with one metrics shard and one oracle buffer.
         Windowed runs must stay un-armed (the fence, epoch and
         membership machinery is cross-partition by construction);
         [Control] rejects an armed windowed system. *)
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

(* A request: its handler runs in a fresh process at [dst] (in place
   when [src = dst]), under the sender's attribution context. *)
let send ctl nodes ~src ~dst ~bytes handler =
  if src = dst then Process.spawn ctl.Control.engine handler
  else post ctl nodes ~src ~dst ~bytes (Control.request ~bytes handler)

(* A reply: [k] never blocks, so it runs in the dispatch event at [dst]
   (in place when [src = dst]), outside any process. *)
let reply ctl nodes ~src ~dst ~bytes k =
  if src = dst then k ()
  else post ctl nodes ~src ~dst ~bytes (Control.reply ~bytes k)

(* Requests between NICs: a core charge at the requester's NIC as the
   request leaves and again as the response arrives. A stale request is
   answered with a small reject frame. *)
let transport ctl nodes =
  let core_work ~src = Smartnic.core_work nodes.(src).nic ~ops:1 ~bytes:0 in
  {
    Control.depart = (fun ~src ~dst:_ ~bytes:_ -> core_work ~src);
    send = send ctl nodes;
    back =
      (fun ~src ~dst ~bytes k ->
        reply ctl nodes ~src:dst ~dst:src ~bytes (fun () ->
            Smartnic.core_work_then nodes.(src).nic ~ops:1 ~bytes:0 k));
    reject =
      (fun ~src ~dst ~bytes k -> reply ctl nodes ~src:dst ~dst:src ~bytes k);
  }

(* Request/response between NICs from a coordinator process
   ({!Control.call}). *)
let request t ?epoch0 ~src ~dst ~req_bytes ~resp_bytes handler =
  Control.call t.ctl t.tr ?epoch0 ~src ~dst ~req_bytes ~resp_bytes handler

(* One-way message to a live destination NIC, through [send] (a
   handler) or [reply] (an acknowledgement that never blocks). *)
let one_way via t ~src ~dst ~bytes (f : unit -> unit) =
  if t.ctl.crashed.(dst) && dst <> src then
    Xenic_stats.Counter.incr (counters t) "msgs_dropped"
  else via t.ctl t.nodes ~src ~dst ~bytes f

let notify t ~src ~dst ~bytes f = one_way send t ~src ~dst ~bytes f

let notify_reply t ~src ~dst ~bytes k = one_way reply t ~src ~dst ~bytes k

(* ------------------------------------------------------------------ *)
(* NIC-side helpers *)

let with_core node f =
  Resource.acquire (Smartnic.cores node.nic);
  let finally () = Resource.release (Smartnic.cores node.nic) in
  match f () with
  | r ->
      finally ();
      r
  | exception e ->
      finally ();
      raise e

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

(* Lock [keys] in order, returning their lock versions; on a conflict,
   release the locks already taken and return [None]. *)
let lock_all idx io ~owner keys =
  let rec acquire acc = function
    | [] -> Some (List.rev acc)
    | k :: rest -> (
        match Xenic_store.Nic_index.try_lock idx io k ~owner with
        | `Acquired seq -> acquire ((k, seq) :: acc) rest
        | `Locked ->
            List.iter
              (fun (k', _) -> Xenic_store.Nic_index.unlock idx k' ~owner)
              acc;
            None)
  in
  acquire [] keys

(* EXECUTE: lock the shard's write-set keys, read its read-set keys.
   Returns lock versions and read results, or `Fail on any conflict. *)
let execute_handler t node ~owner ~locks ~reads () =
  with_core node (fun () ->
      Smartnic.core_work_held node.nic
        ~ops:(List.length locks + List.length reads)
        ~bytes:0;
      let idx =
        match locks @ reads with
        | [] -> invalid_arg "execute_handler: empty request"
        | k :: _ -> idx_for node k
      in
      match lock_all idx node.io ~owner locks with
      | None ->
          Xenic_stats.Counter.incr (counters t) "exec_lock_conflicts";
          `Fail
      | Some lock_versions -> (
          let rec read_all acc = function
            | [] -> `Ok (List.rev acc)
            | k :: rest -> (
                match Xenic_store.Nic_index.lock_owner idx k with
                | Some o when o <> owner ->
                    Xenic_stats.Counter.incr (counters t) "exec_read_locked";
                    `Fail
                | _ ->
                    let r = Xenic_store.Nic_index.read idx node.io k in
                    let v, seq =
                      match r with Some (v, s) -> (Some v, s) | None -> (None, 0)
                    in
                    read_all ((k, v, seq) :: acc) rest)
          in
          match read_all [] reads with
          | `Ok values -> `Ok (lock_versions, values)
          | `Fail ->
              List.iter
                (fun (k, _) -> Xenic_store.Nic_index.unlock idx k ~owner)
                lock_versions;
              `Fail))

(* VALIDATE: version check for read-only keys. *)
let validate_handler t node ~owner ~checks () =
  with_core node (fun () ->
      Smartnic.core_work_held node.nic ~ops:(List.length checks) ~bytes:0;
      let idx =
        match checks with
        | [] -> invalid_arg "validate_handler: empty request"
        | (k, _) :: _ -> idx_for node k
      in
      let ok =
        List.for_all
          (fun (k, expected) ->
            let lock_ok =
              match Xenic_store.Nic_index.lock_owner idx k with
              | Some o when o <> owner -> false
              | _ -> true
            in
            let current =
              Option.value ~default:0
                (Xenic_store.Nic_index.version idx node.io k)
            in
            lock_ok && current = expected)
          checks
      in
      if not ok then Xenic_stats.Counter.incr (counters t) "validate_conflicts";
      ok)

(* LOG: append the write set to a backup's host-memory log via DMA.
   [decision] is the transaction's shared commit decision; a resent
   (duplicate) record shares it, and the seq guard in [Storage.apply]
   makes the duplicate apply idempotent. *)
let log_handler t node ~decision ~shard ~seq_ops () =
  with_core node (fun () ->
      Smartnic.core_work_held node.nic ~ops:1 ~bytes:0;
      let bytes = Wire.log_record_b ~ops:(List.map fst seq_ops) in
      dma_io t.ctl t.p.features node.nic `Write ~bytes;
      Control.append_log t.ctl ~node:node.id node.log ~bytes ~shard ~ops:seq_ops
        decision)

(* COMMIT: append the commit record, install new values and versions in
   the caching index (pinned until the host applies), release locks. *)
let commit_handler t node ~owner ~shard ~seq_ops ~locked () =
  with_core node (fun () ->
      Smartnic.core_work_held node.nic ~ops:(List.length seq_ops) ~bytes:0;
      let bytes = Wire.log_record_b ~ops:(List.map fst seq_ops) in
      dma_io t.ctl t.p.features node.nic `Write ~bytes;
      (* A COMMIT record is the decision. *)
      Control.append_log t.ctl ~node:node.id node.commit_log ~bytes ~shard
        ~ops:seq_ops (ref Control.Dcommit);
      let idx =
        match seq_ops with
        | [] -> invalid_arg "commit_handler: empty request"
        | (op, _) :: _ -> idx_for node (Op.key op)
      in
      List.iter
        (fun (op, _seq) ->
          let k = Op.key op in
          if not (Keyspace.ordered k) then begin
            Smartnic.mem_access node.nic;
            match op with
            | Op.Put (_, v) -> ignore (Xenic_store.Nic_index.apply_commit idx k v)
            | Op.Delete _ -> Xenic_store.Nic_index.apply_delete idx k
          end)
        seq_ops;
      List.iter (fun k -> Xenic_store.Nic_index.unlock idx k ~owner) locked)

(* ABORT: release locks acquired during EXECUTE. *)
let abort_handler node ~owner ~locked () =
  with_core node (fun () ->
      Smartnic.core_work_held node.nic ~ops:(List.length locked) ~bytes:0;
      List.iter
        (fun k -> Xenic_store.Nic_index.unlock (idx_for node k) k ~owner)
        locked)

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

(* A caching index over [node]'s replica of [shard]: lock-free, hints
   synced from the host table, prewarmed when caching is on. Lock state
   lives only in a NIC, so every rebuild (promotion, rejoin) starts
   from here. *)
let fresh_index t node ~shard =
  let idx =
    Xenic_store.Nic_index.create ~host:(Storage.robinhood node.storage ~shard)
      ~cache_capacity:(if t.p.features.caching then t.p.cache_capacity else 0)
      ()
  in
  Xenic_store.Nic_index.sync_hints idx;
  if t.p.features.caching then Xenic_store.Nic_index.prewarm idx;
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
  let nodes =
    Array.init cfg.Config.nodes (fun id ->
        let storage = ctl.storage.(id) in
        let nic = Smartnic.create ~cores:p.nic_threads engine hw in
        Xenic_pcie.Dma.set_vectored (Smartnic.dma nic) p.features.async_dma;
        let indexes = Array.make cfg.Config.nodes None in
        (* Bound in this order, the audit names the backup log first. *)
        let log = Control.host_log ctl ~node:id ~name:"backup log" in
        let commit_log = Control.host_log ctl ~node:id ~name:"commit log" in
        indexes.(id) <-
          Some
            (Xenic_store.Nic_index.create
               ~host:(Storage.robinhood storage ~shard:id)
               ~cache_capacity:
                 (if p.features.caching then p.cache_capacity else 0)
               ());
        {
          id;
          nic;
          agg =
            Xenic_net.Aggregator.create ctl.fabric ~src:id
              ~enabled:p.features.eth_aggregation;
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

(* After the clone, every caching index syncs its hints from its host
   table and, with caching on, prewarms. *)
let seal t =
  Control.seal t.ctl;
  Array.iter
    (fun node ->
      Array.iter
        (function
          | Some idx ->
              Xenic_store.Nic_index.sync_hints idx;
              if t.p.features.caching then Xenic_store.Nic_index.prewarm idx
          | None -> ())
        node.indexes)
    t.nodes

(* ------------------------------------------------------------------ *)
(* Coordinator logic *)

(* Send LOG to every backup of every written shard as a NIC request;
   await all responses. [decision] is stamped into every appended
   record. *)
let log_phase t ~src seq_ops_by_shard decision =
  Control.replicate t.ctl ~src (Control.log_targets t.ctl seq_ops_by_shard)
    ~send:(fun (shard, backup, seq_ops) ->
      match
        request t ~src ~dst:backup
          ~req_bytes:(Wire.write_ops_b ~ops:(List.map fst seq_ops))
          ~resp_bytes:(fun () -> Wire.small_resp_b)
          (log_handler t t.nodes.(backup) ~decision ~shard ~seq_ops)
      with
      | `Ok () -> true
      | `Down -> false)

(* Asynchronous COMMIT to each written shard's primary (fire and
   forget with a small ack frame for wire accounting). [locks_by_shard]
   records where each shard's locks were acquired; the commit fence
   guarantees routing has not changed since, so the acquisition node is
   still the primary (or has crashed, in which case the notify is
   dropped and the new values survive via the decided backup records).

   The coordinator's "commit" phase closes at the send, so Fig 8/9
   reported a zero commit mean. The apply-side latency — notify send to
   commit-handler completion at the primary — is its own "commit-async"
   phase, with a distinct trace category ("txn-async") so
   critical-path extraction never counts it inside the synchronous
   transaction span. *)
let commit_phase t a ~locks_by_shard ~seq_ops_by_shard =
  let src = a.Control.coord and owner = a.owner in
  let t_send = Engine.now t.ctl.engine in
  List.iter
    (fun (shard, seq_ops) ->
      let primary, locked =
        match List.find_opt (fun (s, _, _) -> s = shard) locks_by_shard with
        | Some (_, node, ks) -> (node, ks)
        | None -> (primary_of t ~shard, [])
      in
      let bytes = Wire.write_ops_b ~ops:(List.map fst seq_ops) in
      notify t ~src ~dst:primary ~bytes (fun () ->
          Attrib.set_phase "commit-async";
          commit_handler t t.nodes.(primary) ~owner ~shard ~seq_ops ~locked ();
          Control.mark_async t.ctl a "commit-async" ~since:t_send;
          notify_reply t ~src:primary ~dst:src ~bytes:Wire.small_resp_b
            (fun () ->
              Smartnic.core_work_then t.nodes.(src).nic ~ops:1 ~bytes:0
                ignore)))
    seq_ops_by_shard

(* Release locks at the node they were acquired at (which may no longer
   be the shard's primary after a promotion; a fresh primary's index
   never saw these locks). Releases to crashed nodes are skipped — the
   lock state died with the NIC. *)
let abort_everywhere t a ~locks_by_shard =
  List.iter
    (fun (_shard, primary, locked) ->
      if locked <> [] && not t.ctl.crashed.(primary) then
        notify t ~src:a.Control.coord ~dst:primary
          ~bytes:(Wire.abort_b ~n_locks:(List.length locked))
          (abort_handler t.nodes.(primary) ~owner:a.owner ~locked))
    locks_by_shard

(* COMMIT every written shard, then release the locked keys that were
   not written. *)
let commit_and_release t a ~acquired seq_ops seq_ops_by_shard =
  commit_phase t a ~locks_by_shard:acquired ~seq_ops_by_shard;
  let written = List.map (fun (op, _) -> Op.key op) seq_ops in
  let residual =
    List.filter_map
      (fun (shard, primary, ks) ->
        match List.filter (fun k -> not (List.mem k written)) ks with
        | [] -> None
        | ks -> Some (shard, primary, ks))
      acquired
  in
  if residual <> [] then abort_everywhere t a ~locks_by_shard:residual

(* -- Standard distributed commit (§4.2), coordinator-side NIC ------- *)

(* Wire size of an EXECUTE response: the values read, or a bare nack. *)
let execute_resp_b = function
  | `Fail -> Wire.small_resp_b
  | `Ok (_, values) ->
      Wire.execute_resp_b
        ~value_bytes:
          (List.map
             (fun (_, v, _) -> match v with Some b -> Bytes.length b | None -> 0)
             values)

(* Per-shard EXECUTE. Results carry the primary the request targeted,
   so a later abort can release locks where they were acquired even if
   routing has moved on. [`Down]: the primary timed out or the request
   crossed a reconfiguration — the transaction should retry against
   fresh routing rather than count a conflict. *)
let execute_phase t a ~epoch0 ~reads_by_shard ~locks_by_shard =
  let src = a.Control.coord and owner = a.owner in
  let shards =
    List.sort_uniq compare (List.map fst reads_by_shard @ List.map fst locks_by_shard)
  in
  let one shard () =
    let reads = Option.value ~default:[] (List.assoc_opt shard reads_by_shard) in
    let locks = Option.value ~default:[] (List.assoc_opt shard locks_by_shard) in
    let primary = primary_of t ~shard in
    let execute ~req_bytes ~resp_bytes ~locks ~reads =
      request t ~epoch0 ~src ~dst:primary ~req_bytes ~resp_bytes
        (execute_handler t t.nodes.(primary) ~owner ~locks ~reads)
    in
    if t.p.features.smart_ops then
      let r =
        execute
          ~req_bytes:
            (Wire.execute_req_b ~n_reads:(List.length reads)
               ~n_locks:(List.length locks) ~state_bytes:0)
          ~resp_bytes:execute_resp_b ~locks ~reads
      in
      match r with
      | `Ok `Fail -> (shard, primary, `Fail)
      | `Ok (`Ok x) -> (shard, primary, `Ok x)
      | `Down -> (shard, primary, `Down)
    else begin
      (* DrTM+H-restricted operation set: one request per lock, then
         one per read (§5.7 baseline). A round with any `Down or `Fail
         calls [release] with the results it did get and ends the
         shard; otherwise [k] gets every key's (lock versions, values). *)
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
          notify t ~src ~dst:primary
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
              execute ~req_bytes:Wire.read_req_b ~resp_bytes:execute_resp_b
                ~locks:[] ~reads:[ key ])
            ~release:(fun _ -> release lock_results)
            (fun read_results ->
              ( shard,
                primary,
                `Ok
                  ( List.concat_map fst lock_results,
                    List.concat_map snd read_results ) )))
    end
  in
  Process.parallel t.ctl.engine (List.map one shards)

let validate_phase t a ~epoch0 checks =
  let src = a.Control.coord and owner = a.owner in
  let one (shard, checks) () =
    let primary = primary_of t ~shard in
    let as_verdict = function
      | `Ok true -> `Valid
      | `Ok false -> `Invalid
      | `Down -> `Down
    in
    if t.p.features.smart_ops then
      as_verdict
        (request t ~epoch0 ~src ~dst:primary
           ~req_bytes:(Wire.validate_req_b ~n_checks:(List.length checks))
           ~resp_bytes:(fun _ -> Wire.small_resp_b)
           (validate_handler t t.nodes.(primary) ~owner ~checks))
    else
      let verdicts =
        Process.parallel t.ctl.engine
          (List.map
             (fun check () ->
               as_verdict
                 (request t ~epoch0 ~src ~dst:primary
                    ~req_bytes:(Wire.validate_req_b ~n_checks:1)
                    ~resp_bytes:(fun _ -> Wire.small_resp_b)
                    (validate_handler t t.nodes.(primary) ~owner
                       ~checks:[ check ])))
             checks)
      in
      if List.exists (fun v -> v = `Down) verdicts then `Down
      else if List.exists (fun v -> v = `Invalid) verdicts then `Invalid
      else `Valid
  in
  let verdicts =
    Process.parallel t.ctl.engine
      (List.map one (Types.group_by_shard fst checks))
  in
  if List.exists (fun v -> v = `Down) verdicts then `Down
  else if List.exists (fun v -> v = `Invalid) verdicts then `Invalid
  else `Valid

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

(* One attempt of the standard distributed commit. [`Retry]: the
   attempt ran into a dead or reconfigured peer — locks on surviving
   primaries have been released; the caller should back off and retry
   against fresh routing (armed mode only). Aborts and retries carry
   their taxonomy reason. *)
let distributed_txn t node (txn : Types.t) a : Control.outcome =
  let epoch0 = t.ctl.epoch in
  (* The execute phase opens here, after any host-NIC crossing. *)
  a.Control.start <- Engine.now t.ctl.engine;
  let reads_by_shard = Types.group_by_shard Fun.id txn.read_set in
  let locks_by_shard_keys = Types.group_by_shard Fun.id txn.write_set in
  Attrib.set_phase "execute";
  let results =
    execute_phase t a ~epoch0 ~reads_by_shard
      ~locks_by_shard:locks_by_shard_keys
  in
  Control.mark t.ctl a "execute";
  let acquired_of results =
    List.filter_map
      (fun (shard, primary, r) ->
        match r with
        | `Ok (lv, _) when lv <> [] -> Some (shard, primary, List.map fst lv)
        | _ -> None)
      results
  in
  let acquired = acquired_of results in
  (* A `Down shard's EXECUTE may still have locked its keys at a live
     primary after the coordinator stopped listening (the response was
     dropped at an epoch bump). Broaden the abort to the whole
     requested footprint at current routing — unlock is owner-guarded,
     so releasing a lock never taken is a no-op. *)
  let broaden acquired requested =
    List.fold_left
      (fun acc (shard, keys) ->
        match List.partition (fun (s, _, _) -> s = shard) acc with
        | [ (_, p, ks) ], rest ->
            let missing = List.filter (fun k -> not (List.mem k ks)) keys in
            (shard, p, missing @ ks) :: rest
        | _, rest ->
            if keys = [] then acc else (shard, primary_of t ~shard, keys) :: rest)
      acquired requested
  in
  (* How an EXECUTE round ends the attempt, if it does: any [`Down]
     aborts the broadened footprint and retries, any [`Fail] aborts
     what was acquired. *)
  let settle results ~acquired ~requested =
    if List.exists (fun (_, _, r) -> r = `Down) results then begin
      abort_everywhere t a ~locks_by_shard:(broaden acquired requested);
      Some (`Retry Metrics.Timeout)
    end
    else if List.exists (fun (_, _, r) -> r = `Fail) results then begin
      abort_everywhere t a ~locks_by_shard:acquired;
      Some (`Aborted Metrics.Lock_conflict)
    end
    else None
  in
  match settle results ~acquired ~requested:locks_by_shard_keys with
  | Some outcome -> outcome
  | None ->
    let lock_versions_of =
      List.concat_map (fun (_, _, r) -> match r with `Ok (lv, _) -> lv | _ -> [])
    in
    let values_of =
      List.concat_map (fun (_, _, r) -> match r with `Ok (_, vs) -> vs | _ -> [])
    in
    let merge_acquired acquired extra =
      List.fold_left
        (fun acc (shard, primary, ks) ->
          match List.partition (fun (s, _, _) -> s = shard) acc with
          | [ (_, p, prev) ], rest -> (shard, p, ks @ prev) :: rest
          | _, rest -> (shard, primary, ks) :: rest)
        acquired extra
    in
    (* Multi-shot execution (§4.2 step 3): each round may request more
       keys; the coordinator issues further EXECUTE requests and
       re-invokes the function over the extended view. *)
    let max_rounds = 8 in
    let rec rounds ~values ~lock_versions ~acquired ~locked_keys ~requested
        ~round =
      Attrib.set_phase "exec-fn";
      match run_exec t node txn (Types.view_of values) with
      | Types.More _ when round >= max_rounds ->
          Xenic_stats.Counter.incr (counters t) "multishot_overflow";
          abort_everywhere t a ~locks_by_shard:acquired;
          (* A round-budget overflow is footprint growth the lock
             acquisition could not keep up with; taxonomy-wise it is a
             lock-conflict abort (see DESIGN.md §8). *)
          `Aborted Metrics.Lock_conflict
      | Types.More { read; lock } -> (
          Xenic_stats.Counter.incr (counters t) "multishot_rounds";
          let read = List.filter (fun k -> not (List.mem k locked_keys)) read in
          let lock = List.filter (fun k -> not (List.mem k locked_keys)) lock in
          Attrib.set_phase "execute";
          let extra =
            execute_phase t a ~epoch0
              ~reads_by_shard:(Types.group_by_shard Fun.id read)
              ~locks_by_shard:(Types.group_by_shard Fun.id lock)
          in
          let acquired = merge_acquired acquired (acquired_of extra) in
          let requested = Types.group_by_shard Fun.id lock @ requested in
          match settle extra ~acquired ~requested with
          | Some outcome -> outcome
          | None ->
              rounds
                ~values:(values @ values_of extra)
                ~lock_versions:(lock_versions @ lock_versions_of extra)
                ~acquired
                ~locked_keys:(locked_keys @ lock)
                ~requested
                ~round:(round + 1))
      | Types.Done ops ->
          Control.mark t.ctl a "exec-fn";
          (* Validate keys read but never locked, against their
             execute-time versions. *)
          let checks =
            List.filter_map
              (fun (k, _, seq) ->
                if List.mem k locked_keys then None else Some (k, seq))
              values
          in
          Control.finish t.ctl a ~epoch0 ~values ~lock_versions ~checks
            ~validate:(validate_phase t a ~epoch0)
            ~release:(fun () -> abort_everywhere t a ~locks_by_shard:acquired)
            ~log:(log_phase t ~src:a.coord)
            ~commit:(commit_and_release t a ~acquired)
            ops
    in
    rounds ~values:(values_of results)
      ~lock_versions:(lock_versions_of results) ~acquired
      ~locked_keys:txn.write_set ~requested:locks_by_shard_keys ~round:1

(* -- Multi-hop OCC (§4.2.3) ----------------------------------------- *)

(* Eligibility: a single execution round (always true in this model), a
   read set covered by the write set (all accesses locked during
   EXECUTE, so no VALIDATE phase is needed), and at most two shards
   with one of them local — or a single remote shard. *)
let multihop_eligible t node (txn : Types.t) =
  t.p.features.multihop
  (* The multi-hop ack fan-in (LOG responses routed to P1) is not
     crash-safe; when timeouts are armed, everything takes the standard
     distributed path, whose phases are individually retryable. *)
  && not t.p.armed
  && List.for_all (fun k -> List.mem k txn.write_set) txn.read_set
  && txn.write_set <> []
  &&
  let locals, remotes =
    List.partition
      (fun s -> primary_of t ~shard:s = node.id)
      (Types.shards txn)
  in
  (* One remote shard, and at most one shard served by the coordinator
     itself (so P1 commits a single-shard record). *)
  List.length remotes = 1 && List.length locals <= 1

(* The coordinator P1 locks+reads its local keys at its own NIC, ships
   execution to the remote primary P2; P2 locks+reads its keys, runs
   the function, LOGs all write sets with responses routed to P1, and
   sends P1 the local shard's new values. P1 commits locally and sends
   P2 its COMMIT. One network message delay shorter than the
   request/response pattern (Fig 7). *)
let multihop_txn t node (txn : Types.t) a : Control.outcome =
  let owner = a.Control.owner in
  let src = node.id in
  let is_local k = primary_of t ~shard:(Keyspace.shard k) = src in
  let local_keys, remote_keys = List.partition is_local txn.write_set in
  let local_reads, remote_reads = List.partition is_local txn.read_set in
  let remote_shard =
    match List.sort_uniq compare (List.map Keyspace.shard remote_keys) with
    | [ s ] -> s
    | _ -> invalid_arg "multihop_txn: not eligible"
  in
  let local_shard =
    match List.sort_uniq compare (List.map Keyspace.shard local_keys) with
    | [ s ] -> Some s
    | [] -> None
    | _ -> invalid_arg "multihop_txn: not eligible"
  in
  let p2 = primary_of t ~shard:remote_shard in
  Attrib.set_phase "execute";
  (* Lock and read the local keys at our own NIC index. *)
  let local_result =
    if local_keys = [] then `Ok ([], [])
    else execute_handler t node ~owner ~locks:local_keys ~reads:local_reads ()
  in
  match local_result with
  | `Fail -> `Aborted Metrics.Lock_conflict
  | `Ok (local_lockv, local_values) -> (
      Control.mark t.ctl a "execute";
      Attrib.set_phase "log";
      (* Expected completions at P1: one LOG response per backup of
         each written shard, plus P2's ExecDone. *)
      let result =
        Process.suspend (fun resume ->
            let ship_bytes =
              Wire.execute_req_b ~n_reads:(List.length remote_keys)
                ~n_locks:(List.length remote_keys)
                ~state_bytes:
                  (txn.state_bytes
                  + List.fold_left
                      (fun acc (_, v, _) ->
                        acc + match v with Some b -> Bytes.length b | None -> 0)
                      0 local_values)
            in
            notify t ~src ~dst:p2 ~bytes:ship_bytes (fun () ->
                let p2_node = t.nodes.(p2) in
                match
                  execute_handler t p2_node ~owner ~locks:remote_keys
                    ~reads:remote_reads ()
                with
                | `Fail ->
                    notify_reply t ~src:p2 ~dst:src ~bytes:Wire.small_resp_b
                      (fun () -> resume `Fail)
                | `Ok (remote_lockv, remote_values) ->
                    (* Execute at the remote primary NIC; multi-hop is
                       limited to single-round execution (§4.2.3), so a
                       More escalates back to the coordinator. *)
                    Resource.acquire (Smartnic.cores p2_node.nic);
                    Process.sleep t.ctl.engine
                      (Smartnic.scaled_exec_ns p2_node.nic txn.host_exec_ns);
                    let exec_result =
                      txn.exec (Types.view_of (local_values @ remote_values))
                    in
                    Resource.release (Smartnic.cores p2_node.nic);
                    match exec_result with
                    | Types.More _ ->
                        List.iter
                          (fun (k, _) ->
                            Xenic_store.Nic_index.unlock (idx_for p2_node k) k ~owner)
                          remote_lockv;
                        notify_reply t ~src:p2 ~dst:src
                          ~bytes:Wire.small_resp_b (fun () -> resume `Multishot)
                    | Types.Done ops ->
                    let lock_versions = local_lockv @ remote_lockv in
                    let seq_ops = Types.seq_ops_of ~lock_versions ops in
                    let by_shard = Types.group_ops_by_shard seq_ops in
                    let backups = Control.log_targets t.ctl by_shard in
                    let expected = ref (List.length backups) in
                    let p1_seq_ops =
                      List.filter
                        (fun (op, _) ->
                          primary_of t ~shard:(Keyspace.shard (Op.key op)) = src)
                        seq_ops
                    in
                    let p2_seq_ops =
                      List.filter
                        (fun (op, _) -> Keyspace.shard (Op.key op) = remote_shard)
                        seq_ops
                    in
                    let done_msg = ref false in
                    let maybe_finish () =
                      if !expected = 0 && !done_msg then
                        resume
                          (`Ok (p1_seq_ops, p2_seq_ops, remote_lockv, remote_values))
                    in
                    (* LOG from P2 to every backup; responses go to P1. *)
                    List.iter
                      (fun (shard, backup, seq_ops) ->
                        let bytes =
                          Wire.write_ops_b ~ops:(List.map fst seq_ops)
                        in
                        notify t ~src:p2 ~dst:backup ~bytes (fun () ->
                            log_handler t t.nodes.(backup)
                              ~decision:(ref Control.Dcommit) ~shard ~seq_ops ();
                            notify_reply t ~src:backup ~dst:src
                              ~bytes:Wire.small_resp_b (fun () ->
                                Smartnic.core_work_then node.nic ~ops:1
                                  ~bytes:0 (fun () ->
                                    decr expected;
                                    maybe_finish ()))))
                      backups;
                    (* ExecDone to P1 with the local shard's writes. *)
                    let done_bytes =
                      Wire.write_ops_b ~ops:(List.map fst p1_seq_ops)
                    in
                    notify_reply t ~src:p2 ~dst:src ~bytes:done_bytes
                      (fun () ->
                        Smartnic.core_work_then node.nic ~ops:1 ~bytes:0
                          (fun () ->
                            done_msg := true;
                            maybe_finish ()))))
      in
      match result with
      | `Fail | `Multishot -> (
          if local_lockv <> [] then
            abort_handler node ~owner ~locked:(List.map fst local_lockv) ();
          if result = `Multishot then begin
            (* Single-round restriction: replay through the standard
               distributed path, which supports multi-shot execution.
               The replay only runs un-armed (multi-hop eligibility
               requires it), so [`Retry] cannot occur. *)
            Xenic_stats.Counter.incr (counters t) "multihop_escalations";
            distributed_txn t node txn a
          end
          else `Aborted Metrics.Lock_conflict)
      | `Ok (p1_seq_ops, p2_seq_ops, remote_lockv, remote_values) ->
          Control.mark t.ctl a "log";
          Attrib.set_phase "commit";
          (* Committed. Apply the local commit at our own NIC and send
             COMMIT to P2 asynchronously. *)
          (match (p1_seq_ops, local_shard) with
          | (_ :: _ as seq_ops), Some shard ->
              commit_handler t node ~owner ~shard ~seq_ops ~locked:local_keys ()
          | [], _ when local_keys <> [] ->
              abort_handler node ~owner ~locked:local_keys ()
          | _ -> ());
          (if p2_seq_ops <> [] then
             let t_send = Engine.now t.ctl.engine in
             notify t ~src ~dst:p2
               ~bytes:(Wire.write_ops_b ~ops:(List.map fst p2_seq_ops))
               (fun () ->
                 commit_handler t t.nodes.(p2) ~owner ~shard:remote_shard
                   ~seq_ops:p2_seq_ops ~locked:remote_keys ();
                 Control.mark_async t.ctl a "commit-async" ~since:t_send)
           else if remote_keys <> [] then
             notify t ~src ~dst:p2
               ~bytes:(Wire.abort_b ~n_locks:(List.length remote_keys))
               (abort_handler t.nodes.(p2) ~owner ~locked:remote_keys));
          Control.record_commit t.ctl ~id:owner
            ~values:(local_values @ remote_values)
            ~lock_versions:(local_lockv @ remote_lockv)
            ~seq_ops:(p1_seq_ops @ p2_seq_ops);
          Control.mark t.ctl a "commit";
          `Committed)

(* -- Local fast path (§4.2.4) --------------------------------------- *)

(* A committed local transaction applies its commit at the coordinator's
   own NIC asynchronously. *)
let commit_local t node a ~shard ~seq_ops ~locked =
  let t_send = Engine.now t.ctl.engine and owner = a.Control.owner in
  Process.spawn t.ctl.engine (fun () ->
      Attrib.set_phase "commit-async";
      commit_handler t node ~owner ~shard ~seq_ops ~locked ();
      Control.mark_async t.ctl a "commit-async" ~since:t_send)

(* Local transactions execute optimistically on the host against the
   host-side structures; write transactions then lock/validate at the
   local NIC index before replicating. *)
let local_txn t node ~shard (txn : Types.t) a : Control.outcome =
  let owner = a.Control.owner in
  let src = node.id in
  let epoch0 = t.ctl.epoch in
  Attrib.set_phase "execute";
  Resource.acquire node.app;
  let values =
    List.map
      (fun k ->
        Process.sleep t.ctl.engine t.hw.host_op_ns;
        match Storage.read node.storage k with
        | Some (v, seq) -> (k, Some v, seq)
        | None -> (k, None, 0))
      txn.read_set
  in
  Process.sleep t.ctl.engine txn.host_exec_ns;
  let exec_result = txn.exec (Types.view_of values) in
  Resource.release node.app;
  Control.mark t.ctl a "execute";
  match exec_result with
  | Types.More _ ->
      (* Multi-shot transactions leave the fast path; no locks are held
         yet, so simply replay through the distributed protocol. *)
      Xenic_stats.Counter.incr (counters t) "multihop_escalations";
      Smartnic.host_msg node.nic;
      let result = distributed_txn t node txn a in
      Smartnic.host_msg node.nic;
      result
  | Types.Done ops ->
  if ops = [] && txn.write_set = [] then begin
    (* Read-only local transaction: re-check versions at the host. *)
    Attrib.set_phase "validate";
    let ok =
      List.for_all
        (fun (k, _, seq) ->
          match Storage.read node.storage k with
          | Some (_, seq') -> seq' = seq
          | None -> seq = 0)
        values
    in
    Control.mark t.ctl a "validate";
    if ok then begin
      Control.record_commit t.ctl ~id:owner ~values ~lock_versions:[]
        ~seq_ops:[];
      `Committed
    end
    else begin
      Xenic_stats.Counter.incr (counters t) "validate_conflicts_local_ro";
      `Aborted Metrics.Validation_failure
    end
  end
  else begin
    (* Ship the transaction state to the local NIC (one PCIe crossing). *)
    Attrib.set_phase "validate";
    Smartnic.host_msg node.nic;
    let lock_result =
      with_core node (fun () ->
          Smartnic.core_work_held node.nic ~ops:(List.length txn.write_set) ~bytes:0;
          let idx =
            match txn.write_set with
            | [] -> invalid_arg "local_txn: no writes"
            | k :: _ -> idx_for node k
          in
          match lock_all idx node.io ~owner txn.write_set with
          | None -> `Lock_fail
          | Some lockv ->
              (* Validate the host-read versions against the NIC's
                 authoritative metadata. *)
              let ok =
                List.for_all
                  (fun (k, _, host_seq) ->
                    if Keyspace.ordered k then true
                    else
                      match Xenic_store.Nic_index.lock_owner idx k with
                      | Some o when o <> owner -> false
                      | _ ->
                          let current =
                            Option.value ~default:0
                              (Xenic_store.Nic_index.version idx node.io k)
                          in
                          current = host_seq)
                  values
              in
              if ok then `Ok lockv
              else begin
                List.iter
                  (fun (k, _) -> Xenic_store.Nic_index.unlock idx k ~owner)
                  lockv;
                Xenic_stats.Counter.incr (counters t) "validate_conflicts_local_w";
                `Validate_fail
              end)
    in
    match lock_result with
    | `Lock_fail ->
        Smartnic.host_msg node.nic;
        `Aborted Metrics.Lock_conflict
    | `Validate_fail ->
        Smartnic.host_msg node.nic;
        `Aborted Metrics.Validation_failure
    | `Ok lock_versions ->
        Control.mark t.ctl a "validate";
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
  end

(* ------------------------------------------------------------------ *)
(* Entry point *)

let run_txn t ~node (txn : Types.t) =
  let n = t.nodes.(node) in
  Control.run_txn t.ctl ~node (fun a ->
      match Types.single_shard txn with
      | Some s when primary_of t ~shard:s = node ->
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
          end)

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
