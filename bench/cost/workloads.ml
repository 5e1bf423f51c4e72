(* The four benchmark workloads and one measured run of each.

   A run builds its system (timed: setup), drives it (timed: the
   [Driver.run] / [Openloop.run] call), then checks it outside the
   timed windows. The simulated work depends only on the seed and the
   run length in seconds, so every simulated result is deterministic,
   and host time is read per chunk of commits. *)

open Xenic_sim
open Xenic_cluster
open Xenic_proto
open Xenic_workload
module Telemetry = Xenic_telemetry.Telemetry
module Vec = Spans.Vec

(* The paper's testbed: 6 servers, 3-way replication. *)
let nodes = 6

let replication = 3

(* Closed-loop transactions outstanding per node. *)
let concurrency = 16

let warmup_frac = 0.15

type stack = Xenic of Xenic_system.params | Drtmh of Rdma_system.params

let create stack =
  (* One domain, whatever XENIC_DOMAINS says. *)
  let engine = Engine.create ~domains:1 () in
  let cfg = Config.make ~nodes ~replication in
  match stack with
  | Xenic p -> System.of_xenic (Xenic_system.create engine Xenic_params.Hw.testbed cfg p)
  | Drtmh p ->
      System.of_rdma
        (Rdma_system.create engine Xenic_params.Hw.testbed cfg Rdma_system.Drtmh p)

type closed = {
  stack : stack;
  load : System.t -> unit;
  spec : System.t -> Driver.spec;
  target : int;  (* commits *)
  check : System.t -> unit;  (* workload invariants; raises Failure *)
}

type open_loop = {
  o_stack : stack;
  o_load : System.t -> unit;
  o_workload : Openloop.workload;
  theta : float;  (* Zipf skew of key sampling *)
  rates : float list;  (* cluster-wide offered txn/s, one fresh system each *)
  duration_ns : float;  (* simulated time per rate *)
  report_rate : float;
      (* the rate whose goodput and latency are the end-to-end metrics:
         past the knee, where bounded admission keeps the queue finite
         and the tail is stable from seed to seed *)
}

type kind = Closed of closed | Open of open_loop

type t = { name : string; describe : string; kind : kind }

let xenic_params ~store_cfg p =
  let segments, seg_size, d_max = store_cfg in
  Xenic { p with Xenic_system.segments; seg_size; d_max }

(* Run sizes scale with [seconds]. A closed-loop run gets about half
   the commits this simulator gets through in [seconds] host seconds on
   a 2-vCPU VM, because the benchmark times it twice; at ten seconds
   the two add up to fig8-scale work (250k Smallbank commits, 60k
   TPC-C, 200k on DrTM+H). The open loop runs 1 ms of simulated time
   per rate and second. [tiny] is for the smoke test. *)
let all ~tiny ~seconds =
  let per_s n = max 1_000 (int_of_float (float_of_int n *. seconds)) in
  let sb =
    {
      Smallbank.default_params with
      accounts_per_node = (if tiny then 1_000 else 60_000);
    }
  in
  let sb_load = Smallbank.load sb in
  let sb_spec _ = Smallbank.spec sb ~nodes in
  let tp =
    {
      Tpcc.default_params with
      warehouses_per_node = (if tiny then 2 else 16);
      customers_per_district = (if tiny then 10 else 30);
      items = (if tiny then 200 else 1_500);
    }
  in
  let rw =
    { Retwis.default_params with keys_per_node = (if tiny then 2_000 else 50_000) }
  in
  let no_check _ = () in
  [
    {
      name = "smallbank";
      describe =
        "closed loop, Xenic, 6 nodes rf=3, 16 txns/node outstanding, NIC \
         cache holds every account";
      kind =
        Closed
          {
            stack =
              xenic_params ~store_cfg:(Smallbank.store_cfg sb)
                {
                  Xenic_system.default_params with
                  cache_capacity = 2 * sb.Smallbank.accounts_per_node;
                };
            load = sb_load;
            spec = sb_spec;
            target = (if tiny then 1_500 else per_s 12_500);
            check = no_check;
          };
    };
    {
      name = "tpcc";
      describe =
        "closed loop, Xenic, full TPC-C mix, 16 warehouses/node, 16 txns/node \
         outstanding";
      kind =
        Closed
          {
            stack =
              xenic_params ~store_cfg:(Tpcc.store_cfg tp)
                {
                  Xenic_system.default_params with
                  cache_capacity = Tpcc.hash_keys_per_shard tp;
                  app_threads = 8;
                  worker_threads = 10;
                };
            load = Tpcc.load tp;
            spec = Tpcc.spec tp;
            target = (if tiny then 600 else per_s 3_000);
            check = Tpcc.check_consistency tp;
          };
    };
    {
      name = "retwis-open";
      describe =
        "open loop, Xenic, partitions=2, NIC cache = keys/8, bounded \
         admission, rates 1.0-2.0M txn/s";
      kind =
        Open
          {
            o_stack =
              xenic_params ~store_cfg:(Retwis.store_cfg rw)
                {
                  Xenic_system.default_params with
                  cache_capacity = rw.Retwis.keys_per_node / 8;
                  partitions = 2;
                };
            o_load = Retwis.load rw;
            o_workload = Retwis.openloop_spec rw;
            theta = rw.Retwis.zipf_theta;
            rates = [ 1.0e6; 1.25e6; 1.5e6; 1.75e6; 2.0e6 ];
            duration_ns = (if tiny then 5e5 else Float.max 1e5 (1e6 *. seconds));
            report_rate = 2.0e6;
          };
    };
    {
      name = "smallbank-drtmh";
      describe = "closed loop, DrTM+H, the smallbank inputs and sizes";
      kind =
        Closed
          {
            stack =
              Drtmh
                {
                  Rdma_system.default_params with
                  buckets = Smallbank.chained_buckets sb;
                };
            load = sb_load;
            spec = sb_spec;
            target = (if tiny then 1_500 else per_s 10_000);
            check = no_check;
          };
    };
  ]

let names = List.map (fun w -> w.name) (all ~tiny:true ~seconds:0.0)

(* Open-loop admission, as in `bench load`. *)
let admission = { Admission.capacity = 64; backpressure = 8.0; deadline_ns = 1e6 }

let service_slots = 4

let users = 2_000_000

(* The latency SLO `bench load` uses, on p99. *)
let slo_p99_us = 100.0

let slo_failed_frac = 0.01

(* -- measurement helpers ------------------------------------------- *)

(* Nearest-rank quantile of a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

type latency = {
  samples : int;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  beyond_p999 : int;  (* samples strictly above the p99.9 rank *)
}

let latency_of (v : float Vec.t) =
  let a = Array.init (Vec.length v) (Vec.get v) in
  Array.sort Float.compare a;
  let n = Array.length a in
  let us q = quantile a q /. 1e3 in
  {
    samples = n;
    p50_us = us 0.5;
    p99_us = us 0.99;
    p999_us = us 0.999;
    beyond_p999 = n - int_of_float (Float.ceil (0.999 *. float_of_int n));
  }

(* Host cost of a run. *)
type host = {
  mutable setup_s : float list;  (* one entry per system built *)
  mutable run_s : float;
  mutable committed : int;  (* commits in the timed calls, warmup included *)
  mutable events : int;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  chunk : int;  (* commits per host-time chunk *)
  mutable chunk_n : int;
  mutable chunk_t0 : int;
  chunk_ns : int Vec.t;  (* host ns of each full chunk, in order *)
}

let new_host ~chunk =
  {
    setup_s = [];
    run_s = 0.0;
    committed = 0;
    events = 0;
    minor_words = 0.0;
    promoted_words = 0.0;
    minor_gcs = 0;
    major_gcs = 0;
    chunk;
    chunk_n = 0;
    chunk_t0 = 0;
    chunk_ns = Vec.create 0;
  }

(* Count one commit; every [chunk] commits, read the host clock. *)
let tick h =
  h.chunk_n <- h.chunk_n + 1;
  if h.chunk_n = h.chunk then begin
    let t = Clock.now_ns () in
    Vec.push h.chunk_ns (t - h.chunk_t0);
    h.chunk_n <- 0;
    h.chunk_t0 <- t
  end

(* Run [f] (the [Driver.run] / [Openloop.run] call) and add its host
   cost to [h]. *)
let timed h (sys : System.t) f =
  let ev0 = Engine.events_run sys.System.engine in
  let s0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  h.chunk_n <- 0;
  h.chunk_t0 <- t0;
  let r = f () in
  let t1 = Clock.now_ns () in
  let w1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  h.run_s <- h.run_s +. (float_of_int (t1 - t0) /. 1e9);
  h.events <- h.events + (Engine.events_run sys.System.engine - ev0);
  h.minor_words <- h.minor_words +. (w1 -. w0);
  h.promoted_words <- h.promoted_words +. (s1.Gc.promoted_words -. s0.Gc.promoted_words);
  h.minor_gcs <- h.minor_gcs + (s1.Gc.minor_collections - s0.Gc.minor_collections);
  h.major_gcs <- h.major_gcs + (s1.Gc.major_collections - s0.Gc.major_collections);
  (r, t0, t1)

(* What a traced run adds: its span recorder and the setup-call totals
   the store wrappers accumulate. *)
type tracer = {
  sp : Spans.t;
  mutable load_ns : int;
  mutable load_calls : int;
}

(* Build, load and seal a fresh system; return it with its setup time.
   Traced runs wrap [System.t.load]/[seal] and record the setup spans. *)
let setup tracer stack load =
  (* Free the previous system before timing this one. *)
  Gc.full_major ();
  let t0 = Clock.now_ns () in
  let sys = create stack in
  let t1 = Clock.now_ns () in
  (match tracer with
  | None -> load sys
  | Some tr ->
      let seal_span = ref (0, 0) in
      let calls0 = tr.load_calls and ns0 = tr.load_ns in
      let wrapped =
        {
          sys with
          System.load =
            (fun k v ->
              let a = Clock.now_ns () in
              sys.System.load k v;
              tr.load_ns <- tr.load_ns + (Clock.now_ns () - a);
              tr.load_calls <- tr.load_calls + 1;
              if tr.load_calls land 255 = 0 then Spans.Gc_events.poll ());
          seal =
            (fun () ->
              let a = Clock.now_ns () in
              sys.System.seal ();
              seal_span := (a, Clock.now_ns ()));
        }
      in
      load wrapped;
      let t2 = Clock.now_ns () in
      let setup_id = Spans.fresh_id tr.sp in
      ignore
        (Spans.add tr.sp "proto.create" ~parent:setup_id ~start_ns:t0 ~stop_ns:t1);
      let gen_id = Spans.fresh_id tr.sp in
      let a, b = !seal_span in
      ignore (Spans.add tr.sp "store.seal" ~parent:gen_id ~start_ns:a ~stop_ns:b);
      ignore
        (Spans.add tr.sp "store.load" ~parent:gen_id ~aggregated:true
           ~args:[ ("calls", Json.Int (tr.load_calls - calls0)) ]
           ~start_ns:t1
           ~stop_ns:(t1 + tr.load_ns - ns0));
      ignore
        (Spans.add tr.sp "workload.load_gen" ~id:gen_id ~parent:setup_id
           ~start_ns:t1 ~stop_ns:t2);
      ignore (Spans.add tr.sp "setup" ~id:setup_id ~start_ns:t0 ~stop_ns:t2));
  (sys, Clock.seconds_since t0)

(* Run one generator call, recording a [workload.generate] span and
   polling the GC event ring every 256 calls when traced. *)
let generate tracer f =
  match tracer with
  | None -> f ()
  | Some tr ->
      let a = Clock.now_ns () in
      let r = f () in
      let b = Clock.now_ns () in
      Spans.generate tr.sp ~start_ns:a ~stop_ns:b;
      if Spans.generate_count tr.sp land 255 = 0 then Spans.Gc_events.poll ();
      r

let attach_oracle tracer (sys : System.t) =
  Option.map
    (fun _ ->
      let o = Oracle.create () in
      sys.System.set_oracle o;
      o)
    tracer

let check_oracle problems sp oracle (sys : System.t) =
  sys.System.sync ();
  let a = Clock.now_ns () in
  let verdict = Oracle.check oracle in
  let b = Clock.now_ns () in
  ignore (Spans.add sp "oracle.check" ~start_ns:a ~stop_ns:b);
  match verdict with
  | Oracle.Serializable -> ()
  | Oracle.Violation v -> problems := ("oracle: " ^ v) :: !problems

let check_common problems (sys : System.t) =
  (match sys.System.audit () with
  | [] -> ()
  | issues ->
      problems :=
        Printf.sprintf "audit: %s" (String.concat "; " issues) :: !problems);
  let m = sys.System.metrics () in
  let reasons =
    List.fold_left (fun s (_, n) -> s + n) 0 (Metrics.abort_reason_counts m)
  in
  if reasons <> Metrics.aborted m then
    problems :=
      Printf.sprintf "abort reasons sum to %d, aborted = %d" reasons
        (Metrics.aborted m)
      :: !problems

(* One grid point of the open-loop workload. *)
type point = {
  rate : float;
  offered : int;
  goodput_tps : float;
  window_failed : int;  (* window aborts + sheds *)
  lat : latency;
}

(* Everything one run measured. *)
type run = {
  host : host;
  attempted : int;  (* transactions submitted *)
  failed : int;  (* of those, aborted or shed *)
  tput_per_server : float;
  lat : latency;
  points : point list;  (* open loop only *)
  layers : Layers.acc;
  problems : string list;  (* failed correctness checks *)
}

(* [setups] systems are built and timed; the run uses the last. *)
let closed_run ~seed ~tracer ~setups c =
  let h = new_host ~chunk:(max 1 (c.target / 25)) in
  let problems = ref [] in
  let rec build k =
    let sys, s = setup tracer c.stack c.load in
    h.setup_s <- s :: h.setup_s;
    if k > 1 then build (k - 1) else sys
  in
  let sys = build setups in
  let engine = sys.System.engine in
  let warmup = int_of_float (float_of_int c.target *. warmup_frac) in
  let lat = Vec.create 0.0 in
  let commits = ref 0 in
  let last_done = ref 0.0 in
  let last_cls = ref "" in
  let run_id = Option.map (fun tr -> Spans.fresh_id tr.sp) tracer in
  (* Mirror [Driver.run]'s measurement window (commits after the
     first [warmup], in completion order) to keep exact latencies; the
     histogram [Driver.run] reports is bucketed. *)
  let run_txn ~node txn =
    let cls = !last_cls in
    let t0 = Engine.now engine in
    let outcome = sys.System.run_txn ~node txn in
    let t1 = Engine.now engine in
    last_done := Float.max !last_done t1;
    let committed = outcome = Types.Committed in
    if committed then begin
      tick h;
      incr commits;
      if !commits > warmup then Vec.push lat (t1 -. t0)
    end;
    (match (tracer, run_id) with
    | Some tr, Some parent ->
        Spans.run_txn tr.sp ~parent ~node ~cls ~start:t0 ~stop:t1 ~committed
          ~queued:0.0
    | _ -> ());
    outcome
  in
  let sys' = { sys with System.run_txn } in
  let spec = c.spec sys' in
  let spec' =
    match tracer with
    | None -> spec
    | Some _ ->
        {
          spec with
          Driver.generate =
            (fun rng ~node ->
              let ((cls, _) as r) =
                generate tracer (fun () -> spec.Driver.generate rng ~node)
              in
              (* [Driver.run] calls run_txn right after, with no
                 suspension in between. *)
              last_cls := cls;
              r);
        }
  in
  let oracle = attach_oracle tracer sys in
  let trace =
    Option.map
      (fun _ -> Trace.create ~limit:((64 * c.target) + 1_000_000) engine)
      tracer
  in
  let result, t0, t1 =
    timed h sys (fun () ->
        Driver.run ~seed ~warmup_frac ?trace ~profile:(Option.is_some tracer)
          sys' spec' ~concurrency ~target:c.target)
  in
  let m = sys.System.metrics () in
  h.committed <- Metrics.committed m;
  let attempted = Metrics.committed m + Metrics.aborted m in
  check_common problems sys;
  if Vec.length lat <> result.Driver.committed then
    problems :=
      Printf.sprintf "%d latency samples, Driver.run's window has %d commits"
        (Vec.length lat) result.Driver.committed
      :: !problems;
  (match c.check sys with
  | () -> ()
  | exception Failure msg -> problems := ("consistency: " ^ msg) :: !problems);
  (match trace with
  | Some tr when Trace.dropped tr > 0 ->
      problems := Printf.sprintf "trace dropped %d events" (Trace.dropped tr) :: !problems
  | _ -> ());
  (match (tracer, run_id, oracle) with
  | Some tr, Some id, Some o ->
      ignore (Spans.add tr.sp "sim.run" ~id ~start_ns:t0 ~stop_ns:t1);
      check_oracle problems tr.sp o sys
  | _ -> ());
  let layers = Layers.create () in
  Layers.add layers sys ~elapsed_ns:!last_done ~committed:(Metrics.committed m)
    ~attempted ~shed:[];
  {
    host = h;
    attempted;
    failed = Metrics.aborted m;
    tput_per_server = result.Driver.tput_per_server;
    lat = latency_of lat;
    points = [];
    layers;
    problems = List.rev !problems;
  }

let open_point ~seed ~tracer h layers problems o rate =
  let sys, setup_s = setup tracer o.o_stack o.o_load in
  let engine = sys.System.engine in
  let t_start = Engine.now engine in
  let t_end = t_start +. o.duration_ns in
  (* Arrivals are engine events, so the generator runs exactly at each
     arrival's scheduled time: record it per coordinator, in arrival
     order, and match it at service time. Service is FIFO per
     coordinator; entries passed over were shed. *)
  let arrivals = Array.init nodes (fun _ -> Queue.create ()) in
  let last_done = ref t_start in
  let lat = Vec.create 0.0 in
  let run_id = Option.map (fun tr -> Spans.fresh_id tr.sp) tracer in
  let wl =
    {
      o.o_workload with
      Openloop.make =
        (fun ~nodes ~node ->
          let inner = o.o_workload.Openloop.make ~nodes ~node in
          fun rng ~theta ~hot ->
            let ((cls, txn) as r) =
              generate tracer (fun () -> inner rng ~theta ~hot)
            in
            Queue.push (txn, Engine.now engine, cls) arrivals.(node);
            r);
    }
  in
  let run_txn ~node txn =
    let rec arrival () =
      match Queue.take_opt arrivals.(node) with
      | Some (t, t_arr, cls) when t == txn -> Some (t_arr, cls)
      | Some _ -> arrival ()
      | None -> None
    in
    (* Match before running: other slots dequeue while this one is
       suspended in run_txn. *)
    let arrived = arrival () in
    let t0 = Engine.now engine in
    let outcome = sys.System.run_txn ~node txn in
    let t1 = Engine.now engine in
    last_done := Float.max !last_done t1;
    let committed = outcome = Types.Committed in
    if committed then tick h;
    match arrived with
    | None ->
        problems := "open loop: served a transaction that never arrived" :: !problems;
        outcome
    | Some (t_arr, cls) ->
        if committed && Float.compare t1 t_end <= 0 then Vec.push lat (t1 -. t_arr);
        (match (tracer, run_id) with
        | Some tr, Some parent ->
            Spans.run_txn tr.sp ~parent ~node ~cls ~start:t0 ~stop:t1 ~committed
              ~queued:(t0 -. t_arr)
        | _ -> ());
        outcome
  in
  let sys' = { sys with System.run_txn } in
  let oracle = attach_oracle tracer sys in
  let telemetry =
    Option.map
      (fun _ -> Telemetry.create ~window_ns:(o.duration_ns /. 20.0) engine)
      tracer
  in
  let r, t0, t1 =
    timed h sys (fun () ->
        Openloop.run ~seed ~admission ~service_slots ~users ?telemetry sys' wl
          ~phases:
            [
              {
                Openloop.duration_ns = o.duration_ns;
                rate_tps = rate;
                theta = o.theta;
                hot_frac = 0.05;
              };
            ])
  in
  let m = sys.System.metrics () in
  h.committed <- h.committed + Metrics.committed m;
  let offered =
    Array.fold_left (fun a p -> a + p.Openloop.p_offered) 0 r.Openloop.per_phase
  in
  check_common problems sys;
  if offered <> Metrics.committed m + Metrics.aborted m then
    problems :=
      Printf.sprintf "@%.0f: %d arrivals but %d commits + %d aborts" rate offered
        (Metrics.committed m) (Metrics.aborted m)
      :: !problems;
  if Vec.length lat <> r.Openloop.committed then
    problems :=
      Printf.sprintf "@%.0f: %d latency samples, window has %d commits" rate
        (Vec.length lat) r.Openloop.committed
      :: !problems;
  (match (tracer, run_id, oracle) with
  | Some tr, Some id, Some orc ->
      ignore
        (Spans.add tr.sp "sim.run" ~id ~start_ns:t0 ~stop_ns:t1
           ~args:[ ("rate_tps", Json.Num rate) ]);
      check_oracle problems tr.sp orc sys
  | _ -> ());
  Layers.add layers sys ~elapsed_ns:(!last_done -. t_start)
    ~committed:(Metrics.committed m) ~attempted:offered
    ~shed:(List.map snd r.Openloop.shed);
  ( {
      rate;
      offered = r.Openloop.offered;
      goodput_tps = r.Openloop.goodput_tps;
      window_failed = r.Openloop.aborted + r.Openloop.shed_total;
      lat = latency_of lat;
    },
    setup_s,
    Metrics.aborted m )

(* One pass over the rate grid, a fresh system per rate. *)
let open_run ~seed ~tracer ~tiny o =
  let h = new_host ~chunk:(if tiny then 100 else 1_000) in
  let layers = Layers.create () in
  let problems = ref [] in
  let points, failed =
    List.fold_left
      (fun (pts, failed) rate ->
        let p, s, f = open_point ~seed ~tracer h layers problems o rate in
        h.setup_s <- s :: h.setup_s;
        (p :: pts, failed + f))
      ([], 0) o.rates
  in
  let points = List.rev points in
  let reported = List.find (fun p -> Float.equal p.rate o.report_rate) points in
  {
    host = h;
    attempted = layers.Layers.attempted;
    failed;
    tput_per_server = reported.goodput_tps /. float_of_int nodes;
    lat = reported.lat;
    points;
    layers;
    problems = List.rev !problems;
  }

let run ~seed ~tracer ~setups ~tiny w =
  match w.kind with
  | Closed c -> closed_run ~seed ~tracer ~setups c
  | Open o -> open_run ~seed ~tracer ~tiny o

let point_failed_frac p =
  if p.offered = 0 then 0.0 else float_of_int p.window_failed /. float_of_int p.offered

(* Highest grid rate meeting the SLO (p99 and failures). *)
let slo_rate_tps points =
  List.fold_left
    (fun acc (p : point) ->
      if
        Float.compare p.lat.p99_us slo_p99_us <= 0
        && Float.compare (point_failed_frac p) slo_failed_frac <= 0
      then Float.max acc p.rate
      else acc)
    0.0 points
