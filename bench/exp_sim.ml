(* Extra: wall-clock events/sec microbench of the discrete-event engine
   hot path — a deterministic timer storm on the default engine (one
   partition, one window per run), and a storm on 2 partitions at 1 and
   2 domains. The
   numbers are reported, not gated: the machine-independent guards are
   test_sim's allocation ratchet and bench/cost's alloc_words_per_txn.

   This is the one place in the tree allowed to read the wall clock for
   a reported result: the timer markers below scope the WALL-CLOCK lint
   rule to exactly these reads. *)

(* Deterministic self-rescheduling timer storm. [timers] concurrent
   timers each fire, draw a pseudo-random delay from a private LCG, and
   reschedule until the shared budget runs out. Integer-nanosecond
   delays in a small range force frequent same-timestamp collisions, so
   the batched dispatch path is on the measured path. Each timer
   reschedules its own fixed closure (state lives in arrays), so the
   storm itself allocates nothing per event and what is measured is the
   engine + heap, not the workload. *)
let storm e ~events =
  let open Xenic_sim in
  let timers = 256 in
  let fired = ref 0 in
  let states = Array.make timers 0 in
  let ticks = Array.make timers (fun () -> ()) in
  for i = 0 to timers - 1 do
    states.(i) <- i + 1;
    ticks.(i) <-
      (fun () ->
        incr fired;
        if !fired + timers <= events then begin
          let s = ((states.(i) * 25214903917) + 11) land 0x3FFFFFFFFFFF in
          states.(i) <- s;
          Engine.after e (float_of_int (1 + (s land 1023))) ticks.(i)
        end)
  done;
  for i = 0 to timers - 1 do
    Engine.after e (float_of_int (1 + (i land 7))) ticks.(i)
  done

(* One measured run: returns (events_dispatched, seconds). *)
let timed_current ~events =
  let open Xenic_sim in
  let e = Engine.create () in
  storm e ~events;
  (* xenic-lint: allow WALL-CLOCK timer:bench-sim *)
  let t0 = Unix.gettimeofday () in
  let dispatched = Engine.run e in
  (* xenic-lint: allow WALL-CLOCK timer:bench-sim *)
  let t1 = Unix.gettimeofday () in
  assert (Engine.idle e && dispatched = Engine.events_run e);
  (dispatched, t1 -. t0)

(* Windowed partitioned storm: the 1-vs-2-domain microbench.

   A partition-clean model — [w_nodes] per-node timer chains on 2
   partitions, each chain drawing from a node-private LCG and
   rescheduling locally, with every 8th firing sending to another node
   exactly one lookahead ahead (the fabric wire-latency pattern). The
   same storm runs on a 1-domain and a 2-domain engine in windowed
   conservative mode; dispatched-event counts, final simulated time and
   a per-node state digest must be bit-identical (parity is required;
   wall-clock speedup is reported, not asserted). *)
let w_nodes = 16

(* Windows of ~20us against 1-1024ns local delays give each partition
   hundreds of events per window, so the per-window barrier amortizes;
   at fabric-scale lookahead (~500ns) the barrier dominates and 2
   domains lose — reported numbers, either way. *)
let w_lookahead = 20_000.0

let timed_windowed ~domains ~events =
  let open Xenic_sim in
  let e = Engine.create ~domains () in
  (* Blocked node->partition mapping: each partition's slice of the
     per-node arrays is contiguous, so the two domains never write the
     same cache line. *)
  Engine.set_topology ~lookahead:w_lookahead e ~partitions:2
    ~node_partition:(fun n -> if n < w_nodes / 2 then 0 else 1);
  let per_node = events / w_nodes in
  let states = Array.make w_nodes 0 in
  let fired = Array.make w_nodes 0 in
  let inbox = Array.make w_nodes 0 in
  let ticks = Array.make w_nodes (fun () -> ()) in
  for i = 0 to w_nodes - 1 do
    states.(i) <- i + 1;
    ticks.(i) <-
      (fun () ->
        fired.(i) <- fired.(i) + 1;
        let s = ((states.(i) * 25214903917) + 11) land 0x3FFFFFFFFFFF in
        states.(i) <- (s + inbox.(i)) land 0x3FFFFFFFFFFF;
        inbox.(i) <- 0;
        if fired.(i) land 7 = 0 then begin
          (* Cross-node hop at exactly one wire latency: the only edge
             that may cross the partition boundary, legal in any window
             by construction. *)
          let dst = (i + 1 + (s land 7)) mod w_nodes in
          let v = s land 0xFF in
          Engine.at ~node:dst e
            (Engine.now e +. w_lookahead)
            (fun () -> inbox.(dst) <- (inbox.(dst) + v) land 0xFFFF)
        end;
        if fired.(i) < per_node then
          Engine.after ~node:i e (float_of_int (1 + (s land 1023))) ticks.(i))
  done;
  for i = 0 to w_nodes - 1 do
    Engine.at ~node:i e (float_of_int (1 + (i land 7))) ticks.(i)
  done;
  (* xenic-lint: allow WALL-CLOCK timer:bench-sim *)
  let t0 = Unix.gettimeofday () in
  let dispatched = Engine.run e in
  (* xenic-lint: allow WALL-CLOCK timer:bench-sim *)
  let t1 = Unix.gettimeofday () in
  assert (Engine.idle e && dispatched = Engine.events_run e);
  let digest =
    String.concat ";"
      (List.init w_nodes (fun i ->
           Printf.sprintf "%d:%d:%d" fired.(i) states.(i) inbox.(i)))
  in
  ( dispatched,
    t1 -. t0,
    Printf.sprintf "dispatched=%d now=%h %s" dispatched (Engine.now e) digest
  )

type windowed_measurement = {
  w_events : int;
  one_dom_eps : float;
  two_dom_eps : float;
  dom_speedup : float;
}

let measure_windowed () =
  let events = Common.scale 2_000_000 in
  ignore (timed_windowed ~domains:1 ~events:(events / 10));
  ignore (timed_windowed ~domains:2 ~events:(events / 10));
  let reps = 3 in
  let best1 = ref infinity and best2 = ref infinity in
  let n1 = ref 0 and n2 = ref 0 in
  let dig1 = ref "" and dig2 = ref "" in
  for _ = 1 to reps do
    let n, dt, d = timed_windowed ~domains:1 ~events in
    n1 := n;
    dig1 := d;
    if dt < !best1 then best1 := dt;
    let n, dt, d = timed_windowed ~domains:2 ~events in
    n2 := n;
    dig2 := d;
    if dt < !best2 then best2 := dt
  done;
  (* Parity is the gate: identical event counts, final time, per-node
     states — bit-identical across domain counts, or the bench dies. *)
  if not (String.equal !dig1 !dig2) then
    failwith
      (Printf.sprintf
         "bench sim: windowed 1-domain and 2-domain runs diverged:\n  %s\n  %s"
         !dig1 !dig2);
  let eps n dt =
    if Float.compare dt 0.0 > 0 then float_of_int n /. dt else 0.0
  in
  let one_dom_eps = eps !n1 !best1 in
  let two_dom_eps = eps !n2 !best2 in
  {
    w_events = !n1;
    one_dom_eps;
    two_dom_eps;
    dom_speedup =
      (if Float.compare one_dom_eps 0.0 > 0 then two_dom_eps /. one_dom_eps
       else 0.0);
  }

type measurement = {
  events : int;
  current_eps : float;  (** events per wall-clock second *)
}

(* Best of 3 after a warm-up run, so one GC hiccup or scheduler
   preemption does not decide the figure. *)
let measure () =
  let events = Common.scale 2_000_000 in
  ignore (timed_current ~events:(events / 10));
  let best = ref infinity and n = ref 0 in
  for _ = 1 to 3 do
    let n', dt = timed_current ~events in
    n := n';
    if dt < !best then best := dt
  done;
  {
    events = !n;
    current_eps =
      (if Float.compare !best 0.0 > 0 then float_of_int !n /. !best else 0.0);
  }

let run () =
  let m = measure () in
  Printf.printf "  timer storm: %d events, best of 3\n" m.events;
  Printf.printf "  %-16s %12.3e events/sec\n" "default engine" m.current_eps;
  (* Wall-clock numbers are machine-dependent: the "wallclock" key
     prefix tells `bench diff --ignore-prefix wallclock` to skip them. *)
  Common.json_int "sim storm events" m.events;
  Common.json_num "wallclock current events/sec" m.current_eps;
  let w = measure_windowed () in
  Printf.printf
    "  windowed storm: %d events, %d nodes on 2 partitions, best of 3\n"
    w.w_events w_nodes;
  (* The speedup only means anything relative to the host's real
     parallelism: on a single-core host the ceiling is parity minus
     context-switch overhead. *)
  Printf.printf "  host parallelism: %d recommended domain(s)\n"
    (Domain.recommended_domain_count ());
  Printf.printf "  %-16s %12.3e events/sec\n" "1 domain" w.one_dom_eps;
  Printf.printf "  %-16s %12.3e events/sec\n" "2 domains" w.two_dom_eps;
  Printf.printf "  2-domain speedup: %.2fx (parity bit-identical)\n"
    w.dom_speedup;
  Common.json_int "sim windowed events" w.w_events;
  Common.json_int "wallclock host recommended domains"
    (Domain.recommended_domain_count ());
  Common.json_num "wallclock windowed 1dom events/sec" w.one_dom_eps;
  Common.json_num "wallclock windowed 2dom events/sec" w.two_dom_eps;
  Common.json_num "wallclock windowed 2dom speedup" w.dom_speedup
