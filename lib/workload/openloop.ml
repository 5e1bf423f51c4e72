open Xenic_sim
open Xenic_cluster
open Xenic_proto

type phase = {
  duration_ns : float;
  rate_tps : float;
  theta : float;
  hot_frac : float;
}

type workload = {
  name : string;
  make :
    nodes:int -> node:int -> (Rng.t -> theta:float -> hot:bool -> string * Types.t);
}

type phase_stat = {
  p_offered : int;
  p_admitted : int;
  p_committed : int;
  p_aborted : int;
  p_shed : int;
}

type result = {
  offered : int;
  admitted : int;
  committed : int;
  aborted : int;
  retried : int;
  shed : (string * int) list;
  shed_total : int;
  goodput_tps : float;
  median_latency_us : float;
  p99_latency_us : float;
  duration_ns : float;
  per_phase : phase_stat array;
  metrics : Metrics.t;
}

(* One queued request. [t_arr] is the original arrival instant — retries
   keep it, so latency and the admission deadline both measure from the
   user's point of view. *)
type req = {
  txn : Types.t;
  cls : string;
  t_arr : float;
  phase : int;
  attempt : int;
}

(* The service slots' shutdown poison, told apart by physical
   equality: the mailbox carries bare requests, with no [Some] per
   admitted one. *)
let stop =
  {
    txn = Types.make ~read_set:[] ~write_set:[] (fun _ -> []);
    cls = "stop";
    t_arr = 0.0;
    phase = 0;
    attempt = 0;
  }

let n_causes = List.length Admission.all_causes

let cause_index c =
  let rec go i = function
    | [] -> assert false
    | c' :: rest -> if c' = c then i else go (i + 1) rest
  in
  go 0 Admission.all_causes

(* Per-coordinator counts beside the core's window metrics. Each
   instance is written only by events running on its coordinator's node
   (hence partition); the main thread sums them in coordinator order
   after the engine has drained. *)
type cstate = {
  mutable n_retried : int;
  shed_by_cause : int array;  (* per Admission.cause *)
  ph_offered : int array;
  ph_admitted : int array;
  ph_committed : int array;
  ph_aborted : int array;
  ph_shed : int array;
}

let mk_cstate nphases =
  {
    n_retried = 0;
    shed_by_cause = Array.make n_causes 0;
    ph_offered = Array.make nphases 0;
    ph_admitted = Array.make nphases 0;
    ph_committed = Array.make nphases 0;
    ph_aborted = Array.make nphases 0;
    ph_shed = Array.make nphases 0;
  }

(* Session churn: [active_frac] of the users are active at a time, and
   the active window slides every [churn_period_ns]. *)
let active_frac = 0.05

let churn_period_ns = 2e6

let run ?(seed = 1L) ?(admission = Admission.unlimited)
    ?(service_slots = 8) ?(retries = 0) ?(users = 2_000_000)
    ?telemetry
    (sys : System.t) (wl : workload) ~phases =
  if phases = [] then invalid_arg "Openloop.run: empty phase list";
  List.iter
    (fun (p : phase) ->
      if Float.compare p.duration_ns 0.0 <= 0 then
        invalid_arg "Openloop.run: phase duration must be > 0";
      if Float.compare p.rate_tps 0.0 <= 0 then
        invalid_arg "Openloop.run: phase rate must be > 0";
      if Float.compare p.hot_frac 0.0 < 0 || Float.compare p.hot_frac 1.0 > 0
      then invalid_arg "Openloop.run: hot_frac must be in [0, 1]")
    phases;
  if users < 1 then invalid_arg "Openloop.run: users must be >= 1";
  if service_slots < 1 then
    invalid_arg "Openloop.run: service_slots must be >= 1";
  if retries < 0 then invalid_arg "Openloop.run: retries must be >= 0";
  let engine = sys.System.engine in
  let nodes = sys.System.cfg.Config.nodes in
  let phases_a = Array.of_list phases in
  let nphases = Array.length phases_a in
  let ends = Array.make nphases 0.0 in
  let total =
    let acc = ref 0.0 in
    Array.iteri
      (fun i (p : phase) ->
        acc := !acc +. p.duration_ns;
        ends.(i) <- !acc)
      phases_a;
    !acc
  in
  let phase_at rel =
    let rec go i = if i >= nphases - 1 || rel < ends.(i) then i else go (i + 1) in
    go 0
  in
  let t0 = Engine.now engine in
  (* Driver-side accounting stops when the arrival schedule ends: a
     commit (or deadline drop) landing after [t_end] belongs to backlog
     the system failed to serve in time, and counting it would make an
     unbounded queue look as good as a bounded one once the run drains.
     The system's own metrics still record everything. *)
  let t_end = t0 +. total in
  (* The recorder shares the accounting cutoff: recordings during the
     post-schedule drain — including the system's own commit/abort
     streams — are dropped, exactly like the driver-side counters. *)
  let load = Load.attach ?telemetry ~cutoff:t_end sys ~coordinators:nodes in
  let stack = sys.System.name in
  let root = Rng.create ~seed in
  (* Active-session churn: a window of [active] users slides over the
     population by [stride] every churn period — a pure function of
     simulated time, so every coordinator (and every domain count)
     agrees on the active range without shared state. *)
  let active =
    max 1 (min users (int_of_float (active_frac *. float_of_int users)))
  in
  let stride = max 1 (active / 4) in
  let states = Array.init nodes (fun _ -> mk_cstate nphases) in
  for coord = 0 to nodes - 1 do
    let cs = states.(coord) in
    let adm = Admission.create admission in
    let gen = wl.make ~nodes ~node:coord in
    (* [arr] is this coordinator's sequential arrival stream (gaps, user
       picks, hot coin); [base] is never advanced — per-arrival streams
       derive from it keyed by (user, seq), so a transaction's draws
       depend only on who issued it and when, not on what any other
       arrival consumed. *)
    let arr = Rng.derive root ~index:(0xA000 + coord) in
    let base = Rng.derive root ~index:(0xB000 + coord) in
    let node = Some coord in
    let mb = Mailbox.create ~name:(Printf.sprintf "openloop-q%d" coord) engine in
    let record_shed idx cause ~now ~latency_ns =
      Control.record_shed sys.System.control ~latency_ns;
      (match telemetry with
      | None -> ()
      | Some tel ->
          Xenic_telemetry.Telemetry.record_shed tel ~stack ~node:coord
            ~cause:(Admission.cause_name cause));
      if Float.compare now t_end <= 0 then begin
        cs.ph_shed.(idx) <- cs.ph_shed.(idx) + 1;
        let c = cause_index cause in
        cs.shed_by_cause.(c) <- cs.shed_by_cause.(c) + 1
      end
    in
    let rec serve () =
      let r = Mailbox.recv mb in
      if r != stop then begin
        let waited = Engine.now engine -. r.t_arr in
        (if Admission.drop_expired adm ~waited_ns:waited then
           record_shed r.phase Admission.Deadline
             ~now:(Engine.now engine) ~latency_ns:waited
         else begin
           let outcome = sys.System.run_txn ~node:coord r.txn in
           (match telemetry with
           | None -> ()
           | Some tel ->
               Xenic_telemetry.Telemetry.sample_queue tel ~stack ~node:coord
                 ~depth:(Admission.depth adm));
           Admission.finish adm;
           let done_t = Engine.now engine in
           let latency = done_t -. r.t_arr in
           let counted = Float.compare done_t t_end <= 0 in
           let retry =
             match outcome with
             | Types.Aborted -> r.attempt < retries
             | Types.Committed -> false
           in
           if retry then begin
             (* Client-side retry: back through admission, so a
                deadline/depth-bounded queue sheds the storm instead
                of feeding it. *)
             if counted then cs.n_retried <- cs.n_retried + 1;
             match
               Admission.offer adm
                 ~occupancy:(sys.System.ingress_occupancy ~node:coord)
             with
             | Ok () ->
                 Mailbox.send mb { r with attempt = r.attempt + 1 }
             | Error cause ->
                 record_shed r.phase cause ~now:done_t ~latency_ns:latency
           end
           else begin
             let ph =
               match outcome with
               | Types.Committed -> cs.ph_committed
               | Types.Aborted -> cs.ph_aborted
             in
             if counted then begin
               ph.(r.phase) <- ph.(r.phase) + 1;
               Load.record load coord ~cls:r.cls ~latency_ns:latency outcome
             end
           end
         end);
        serve ()
      end
    in
    (* Coordinator-ingress occupancy, integrated at arrivals
       (coordinator-local state, so partition-safe). *)
    let occ =
      Load.gauge load ~node:coord (fun () ->
          [ ("ingress", fun () -> sys.System.ingress_occupancy ~node:coord) ])
    in
    let rec arrive seq =
      let now = Engine.now engine in
      let rel = now -. t0 in
      if Float.compare rel total >= 0 then
        (* Schedule stops: poison each service slot so the queue drains
           and the engine can finish. *)
        for _ = 1 to service_slots do
          Mailbox.send mb stop
        done
      else begin
        let idx = phase_at rel in
        let ph = phases_a.(idx) in
        let epoch = int_of_float (rel /. churn_period_ns) in
        let win = epoch * stride mod users in
        let user = (win + Rng.int arr active) mod users in
        let hot = Float.compare (Rng.float arr) ph.hot_frac < 0 in
        let txn_rng = Rng.derive (Rng.derive base ~index:user) ~index:seq in
        let cls, txn = gen txn_rng ~theta:ph.theta ~hot in
        cs.ph_offered.(idx) <- cs.ph_offered.(idx) + 1;
        let occupancy = sys.System.ingress_occupancy ~node:coord in
        (match telemetry with
        | None -> ()
        | Some tel ->
            Xenic_telemetry.Telemetry.record_offered tel ~stack ~node:coord);
        Load.integrate occ;
        (match Admission.offer adm ~occupancy with
        | Ok () ->
            cs.ph_admitted.(idx) <- cs.ph_admitted.(idx) + 1;
            (match telemetry with
            | None -> ()
            | Some tel ->
                Xenic_telemetry.Telemetry.record_admitted tel ~stack
                  ~node:coord;
                Xenic_telemetry.Telemetry.sample_queue tel ~stack ~node:coord
                  ~depth:(Admission.depth adm));
            Mailbox.send mb { txn; cls; t_arr = now; phase = idx; attempt = 0 }
        | Error cause -> record_shed idx cause ~now ~latency_ns:0.0);
        let gap =
          Rng.exponential arr
            ~mean:(1e9 *. float_of_int nodes /. ph.rate_tps)
        in
        Process.sleep ?node engine gap;
        arrive (seq + 1)
      end
    in
    (* Pin each coordinator's generator and service slots to its node's
       partition; on a one-partition engine ~node is ignored. *)
    Engine.at ~node:coord engine t0 (fun () ->
        for _ = 1 to service_slots do
          Process.spawn engine serve
        done;
        Process.spawn engine (fun () -> arrive 0))
  done;
  ignore (Engine.run engine);
  let metrics, _ =
    Load.finish load ~who:(Printf.sprintf "Openloop.run (%s)" wl.name)
  in
  let sum f = Array.fold_left (fun a cs -> a + f cs) 0 states in
  let per_phase =
    Array.init nphases (fun i ->
        let sum f = sum (fun cs -> (f cs).(i)) in
        {
          p_offered = sum (fun cs -> cs.ph_offered);
          p_admitted = sum (fun cs -> cs.ph_admitted);
          p_committed = sum (fun cs -> cs.ph_committed);
          p_aborted = sum (fun cs -> cs.ph_aborted);
          p_shed = sum (fun cs -> cs.ph_shed);
        })
  in
  let shed =
    List.mapi
      (fun i c ->
        (Admission.cause_name c, sum (fun cs -> cs.shed_by_cause.(i))))
      Admission.all_causes
  in
  let committed = Metrics.committed metrics in
  let phase_sum f = Array.fold_left (fun a p -> a + f p) 0 per_phase in
  {
    offered = phase_sum (fun p -> p.p_offered);
    admitted = phase_sum (fun p -> p.p_admitted);
    committed;
    aborted = Metrics.aborted metrics;
    retried = sum (fun cs -> cs.n_retried);
    shed;
    shed_total = List.fold_left (fun a (_, n) -> a + n) 0 shed;
    goodput_tps = float_of_int committed /. (total /. 1e9);
    median_latency_us = Metrics.median_latency metrics /. 1_000.0;
    p99_latency_us = Metrics.p99_latency metrics /. 1_000.0;
    duration_ns = total;
    per_phase;
    metrics;
  }
