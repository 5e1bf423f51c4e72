(* Discrete-event engine: conservative windowed PDES over one or more
   partitions, one loop for every engine.

   Each window executes every event with time < T + lookahead (T =
   global minimum) concurrently across partitions; events an event
   schedules onto its own partition draw sequence numbers from a
   per-partition block carved out of the global counter at window
   start, and cross-partition events — legal only at or beyond the
   window horizon, the lookahead discipline — are appended to the
   source partition's bounded outbox and merged at the barrier in the
   order (parent time, parent seq, schedule index), which equals the
   order a sequential execution would have scheduled them in. Each
   outbox is already in that order, so the merge takes the least of
   the outbox heads, in place. Partition count, blocks, and the merge
   are all independent of the domain count, so a 1-domain and an
   n-domain run of the same partitioned model are bit-identical.
   Requires the model to keep partitions independent below the
   lookahead (no shared mutable state, cross-partition delays >=
   lookahead) — violations of the time bound fail deterministically.

   A fresh engine has one partition. No cross-partition event can
   exist there, so its horizon is infinite (a run is one window), its
   seq block is unbounded and the global counter resumes where the
   block ends: the events run in strict (time, seq) order, with the
   sequence numbers a single global counter would hand out.

   The loop allocates nothing per event. Each instant drains in an
   inner batch, so it allocates only the boxed clock value of each
   instant and of each window. The bookkeeping (picking the global
   minimum, carving blocks, the drain's frame install and exception
   handling, the barrier merge) is loops over preallocated state.

   The draining partition is the engine's [main_part] field while no
   worker domain runs. With workers running it is found from the
   installed {!Attrib} frame, which each domain reads from its own DLS
   cell (see {!Ambient}): each partition owns a frame that names it,
   and a drain installs it. *)

(* A partition's cross-partition handoffs for the running window, as
   parallel arrays in push order. A partition executes its events in
   (time, seq) order and a parent issues its schedules in order, so the
   entries are already sorted by (parent time, parent seq, schedule
   index); the index itself need not be stored. [o_head] is the merge
   cursor. *)
type outbox = {
  o_time : float array;  (* the event's own time *)
  o_ptime : float array;  (* scheduling parent's execution time *)
  o_pseq : int array;  (* scheduling parent's sequence number *)
  o_dst : int array;
  o_fn : (unit -> unit) array;
  mutable o_len : int;
  mutable o_head : int;
}

type t = {
  mutable now : float;
  mutable seq : int;
  mutable events_run : int;
  strict : bool;
  mutable checks : (unit -> string list) list;  (* newest first *)
  mutable violations : string list;  (* newest first *)
  mu : Mutex.t;  (* orders checks/violations when partitions share them *)
  domains : int;
  attrib : Attrib.state;
      (* ambient attribution state installed for engine-scoped setup
         code ({!with_attrib}), and the one partition's frame *)
  mutable parts : part array;
  mutable node_part : int -> int;  (* consulted from two partitions up *)
  mutable lookahead : float;  (* infinite on one partition *)
  mutable horizon : float;  (* the running window's bound *)
  mutable main_part : int;
      (* the partition whose drain runs, or -1: written and read only
         while [Ambient.switch.shared] is off, so by the main domain *)
}

and part = {
  p_id : int;
  p_heap : (unit -> unit) Heap.t;
  p_attrib : Attrib.state;
      (* [Attrib.partition eng.attrib p_id], or [eng.attrib] itself on
         a one-partition engine *)
  mutable p_now : float;
  mutable p_events : int;
  mutable p_seq_next : int;  (* next seq in this window's block *)
  mutable p_seq_limit : int;
  mutable p_cur_seq : int;
      (* the executing event's seq, kept from two partitions up; its
         time is [p_now] *)
  p_out : outbox;
}

(* Default domain count, read once per process: `XENIC_DOMAINS=n` makes
   every engine (whose creator does not pass ~domains) an n-domain one.
   Only runs on several partitions use it; the test suite uses it to
   run identical binaries on one domain or several. *)
let env_domains =
  match Sys.getenv_opt "XENIC_DOMAINS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 && d <= 64 -> d
      | _ ->
          invalid_arg
            (Printf.sprintf
               "XENIC_DOMAINS: expected an integer in [1, 64], got %S" s))

(* Handoffs a partition may send to each other partition in one
   window; its outbox holds this many per destination. *)
let outbox_per_dst = 8192

let make_part ~partitions ~now p_id p_attrib =
  let cap = outbox_per_dst * (partitions - 1) in
  {
    p_id;
    p_heap = Heap.create ~dummy:ignore;
    p_attrib;
    p_now = now;
    p_events = 0;
    p_seq_next = 0;
    p_seq_limit = 0;
    p_cur_seq = 0;
    p_out =
      {
        o_time = Array.make cap 0.0;
        o_ptime = Array.make cap 0.0;
        o_pseq = Array.make cap 0;
        o_dst = Array.make cap 0;
        o_fn = Array.make cap ignore;
        o_len = 0;
        o_head = 0;
      };
  }

let create ?(strict = false) ?domains () =
  let domains = match domains with Some d -> d | None -> env_domains in
  if domains < 1 then invalid_arg "Engine.create: domains must be >= 1";
  let attrib = Attrib.fresh () in
  {
    now = 0.0;
    seq = 0;
    events_run = 0;
    strict;
    checks = [];
    violations = [];
    mu = Mutex.create ();
    domains;
    attrib;
    parts = [| make_part ~partitions:1 ~now:0.0 0 attrib |];
    node_part = (fun _ -> 0);
    lookahead = infinity;
    horizon = infinity;
    main_part = -1;
  }

let domains t = t.domains

let partitions t = Array.length t.parts

(* The partition of [t] whose window drain runs on this domain, or -1
   (setup code between windows): schedules from its events resolve
   their origin without threading the partition through every model
   layer. One ambient read: a field on the main domain alone, the
   installed frame with workers running. *)
let draining t =
  if Ambient.switch.shared then Attrib.partition_in t.attrib else t.main_part

(* The clock of [t]'s draining partition [i], or the engine's own. *)
let clock t i = if i >= 0 then t.parts.(i).p_now else t.now

let now t = clock t (draining t)

let current_partition t = max 0 (draining t)

let strict t = t.strict

let register_check t f =
  if t.strict then begin
    Mutex.lock t.mu;
    t.checks <- f :: t.checks;
    Mutex.unlock t.mu
  end

let report_violation t msg =
  if t.strict then begin
    Mutex.lock t.mu;
    t.violations <- msg :: t.violations;
    Mutex.unlock t.mu
  end

let sanitize t =
  List.rev t.violations
  @ List.concat_map (fun check -> check ()) (List.rev t.checks)

(* Sequence numbers handed to each partition per window. Exhausting a
   block is a deterministic error, not a silent reallocation — blocks
   must stay disjoint without cross-domain coordination. *)
let seq_block = 1 lsl 20

let idle t = Array.for_all (fun p -> Heap.is_empty p.p_heap) t.parts

let set_topology t ~lookahead ~partitions ~node_partition =
  if partitions <= 0 then
    invalid_arg "Engine.set_topology: partitions must be positive";
  if Float.compare lookahead 0.0 <= 0 then
    invalid_arg "Engine.set_topology: lookahead must be positive";
  if Array.length t.parts > 1 then
    invalid_arg "Engine.set_topology: topology already set";
  if (not (idle t)) || t.events_run > 0 then
    invalid_arg "Engine.set_topology: engine already has events";
  if partitions > 1 then begin
    t.parts <-
      Array.init partitions (fun i ->
          make_part ~partitions ~now:t.now i (Attrib.partition t.attrib i));
    t.node_part <-
      (fun n ->
        let p = node_partition n in
        if p < 0 || p >= partitions then
          invalid_arg
            (Printf.sprintf
               "Engine: node %d mapped to partition %d outside [0, %d)" n p
               partitions);
        p);
    t.lookahead <- lookahead
  end

(* Scheduling from partition [i] ([draining t]). Local schedules draw
   from the partition's window block; cross-partition schedules must
   respect the lookahead bound and are deferred to the barrier with
   their parent's identity as the merge key. A [~node] tag is resolved
   only from two partitions up: on one, every event is local. *)
let schedule t i node time f =
  if i < 0 then begin
    (* Outside any window (setup code, between runs): the global
       counter is free and the heaps are quiescent. *)
    let dst =
      match node with
      | Some n when Array.length t.parts > 1 -> t.node_part n
      | _ -> 0
    in
    t.seq <- t.seq + 1;
    Heap.push t.parts.(dst).p_heap ~time ~seq:t.seq f
  end
  else
    let p = t.parts.(i) in
    let dst =
      match node with
      | Some n when Array.length t.parts > 1 -> t.node_part n
      | _ -> p.p_id
    in
    if dst = p.p_id then begin
      if p.p_seq_next >= p.p_seq_limit then
        invalid_arg
          (Printf.sprintf
             "Engine: partition %d exhausted its %d-event window block"
             p.p_id seq_block);
      let s = p.p_seq_next in
      p.p_seq_next <- s + 1;
      Heap.push p.p_heap ~time ~seq:s f
    end
    else begin
      if time < t.horizon then
        invalid_arg
          (Printf.sprintf
             "Engine: cross-partition event at %.1f violates the \
              lookahead bound (window horizon %.1f)"
             time t.horizon);
      let o = p.p_out in
      let n = o.o_len in
      if n = Array.length o.o_fn then
        invalid_arg
          (Printf.sprintf
             "Engine: cross-partition outbox of partition %d full: more \
              than %d events left it in one window"
             p.p_id n);
      o.o_time.(n) <- time;
      o.o_ptime.(n) <- p.p_now;
      o.o_pseq.(n) <- p.p_cur_seq;
      o.o_dst.(n) <- dst;
      o.o_fn.(n) <- f;
      o.o_len <- n + 1
    end

let before_now time cur =
  invalid_arg
    (Printf.sprintf "Engine.at: time %.1f is before now %.1f" time cur)

(* [at] and [after] resolve the draining partition once, for both the
   clock and the schedule. *)
let at ?node t time f =
  let i = draining t in
  let cur = clock t i in
  if time < cur then before_now time cur;
  schedule t i node time f

let after ?node t delay f =
  let i = draining t in
  let cur = clock t i in
  let time = cur +. delay in
  if time < cur then before_now time cur;
  schedule t i node time f

(* ------------------------------------------------------------------ *)
(* The window loop. *)

(* Index of the partition holding the globally minimal (time, seq)
   event; -1 when every heap is empty. *)
let global_min parts =
  let best = ref (-1) in
  for i = 0 to Array.length parts - 1 do
    let h = parts.(i).p_heap in
    if (not (Heap.is_empty h))
       && (!best < 0 || Heap.precedes h parts.(!best).p_heap)
    then best := i
  done;
  !best

(* Run the partition's next event. [keyed]: several partitions, so a
   handoff the event schedules needs its seq for the merge key. *)
let dispatch ~keyed p =
  if keyed then p.p_cur_seq <- Heap.min_seq p.p_heap;
  p.p_events <- p.p_events + 1;
  (Heap.pop p.p_heap) ()

(* Every event of the partition strictly below the horizon (and within
   [until]), in the partition heap's (time, seq) order. Each instant's
   events — including ones they schedule for that instant — drain in
   an inner batch that advances the clock once and skips the bound
   tests, which [now] already passed. The batch condition is
   [min_time <= now]: {!at} rejects scheduling in the past, so [<=]
   means "at the current instant" without a float equality. *)
let drain_events ~until t p =
  let h = p.p_heap in
  let keyed = Array.length t.parts > 1 in
  (* One bound test per instant: the tighter bound implies the other. *)
  let capped = until < t.horizon in
  while
    if capped then Heap.next_at_or_before h until
    else Heap.next_before h t.horizon
  do
    let time = Heap.min_time h in
    if t.strict && time < p.p_now then
      report_violation t
        (Printf.sprintf
           "engine: non-monotonic partition %d time (event at %.1f after \
            clock reached %.1f)"
           p.p_id time p.p_now);
    p.p_now <- time;
    dispatch ~keyed p;
    while Heap.next_at_or_before h p.p_now do
      dispatch ~keyed p
    done
  done

(* Drain one partition for the window, with the partition's Attrib
   frame installed and, with no workers, [main_part] set: either tells
   its schedules their origin. Both are restored however the drain
   ends; an exception escaping an event is kept, with its backtrace, in
   [exns] for the barrier to re-raise. *)
let drain_window ~until t exns p =
  let prev = Attrib.install p.p_attrib in
  let main = not Ambient.switch.shared in
  if main then t.main_part <- p.p_id;
  (match drain_events ~until t p with
  | () -> ()
  | exception e -> exns.(p.p_id) <- Some (e, Printexc.get_raw_backtrace ()));
  if main then t.main_part <- -1;
  ignore (Attrib.install prev)

(* The partitions of slot [s]: those [j] with [j mod nslots = s]. *)
let drain_slot ~until t exns ~nslots s =
  let j = ref s in
  while !j < Array.length t.parts do
    drain_window ~until t exns t.parts.(!j);
    j := !j + nslots
  done

(* Whether [a]'s next handoff precedes [b]'s in (parent time, parent
   seq) order. Parents in different partitions never share a seq, so
   the schedule index only orders entries of one outbox, where push
   order already does. *)
let head_precedes a b =
  let i = a.o_head and j = b.o_head in
  let ta = a.o_ptime.(i) and tb = b.o_ptime.(j) in
  ta < tb || (ta <= tb && a.o_pseq.(i) < b.o_pseq.(j))

(* Barrier merge: hand every deferred cross-partition event a fresh
   global seq in (parent time, parent seq, schedule index) order — the
   order a sequential run would have scheduled them in, so equal-time
   events drain from the target heap in global schedule order, not
   arrival order. Each outbox is in that order already, so the merge
   repeatedly takes the least of the outbox heads: O(partitions) per
   handoff, in place. *)
let merge_outboxes t =
  let parts = t.parts in
  let n = Array.length parts in
  let more = ref true in
  while !more do
    let best = ref (-1) in
    for i = 0 to n - 1 do
      let o = parts.(i).p_out in
      if o.o_head < o.o_len
         && (!best < 0 || head_precedes o parts.(!best).p_out)
      then best := i
    done;
    if !best < 0 then more := false
    else begin
      let o = parts.(!best).p_out in
      let h = o.o_head in
      t.seq <- t.seq + 1;
      Heap.push_at parts.(o.o_dst.(h)).p_heap o.o_time h ~seq:t.seq
        o.o_fn.(h);
      o.o_fn.(h) <- ignore;
      o.o_head <- h + 1
    end
  done;
  for i = 0 to n - 1 do
    let o = parts.(i).p_out in
    o.o_len <- 0;
    o.o_head <- 0
  done

(* Persistent window workers: worker [s] (1-based) drains slot [s] each
   window; the coordinator drains slot 0 inline. An atomic generation
   counter releases the workers into a window; an atomic completion
   count closes the barrier — the SC atomics order all partition
   mutations and outbox pushes of window [g] before the coordinator's
   merge for window [g]. Windows are short (tens of microseconds of
   simulated work), so both sides spin briefly on the atomics before
   falling back to the condition variable: a futex sleep/wake per
   window would otherwise dominate the window's own cost. *)
type wctl = {
  w_mu : Mutex.t;
  w_cv : Condition.t;
  w_gen : int Atomic.t;  (* current window generation; 0 = none yet *)
  w_done : int Atomic.t;  (* workers finished with the current window *)
  w_quit : bool Atomic.t;
  w_waiting : bool Atomic.t;  (* coordinator gave up spinning for done *)
  mutable w_sleepers : int;  (* workers asleep on [w_cv]; under [w_mu] *)
  mutable w_until : float;  (* written before the gen bump, read after *)
}

(* ~5k relax iterations = a few microseconds: long enough to cover the
   coordinator's merge (release side) and the skew between partitions
   finishing a window (completion side), short enough that a genuinely
   idle wait parks on the condvar. On a host without real parallelism
   (one core) spinning only steals the running domain's timeslice from
   the domain it is waiting for, so park immediately instead. *)
let spin_budget =
  if Domain.recommended_domain_count () > 1 then 5_000 else 0

(* Wait (spin, then sleep) until the generation moves past [seen];
   the new generation, or -1 to quit. *)
let await_window ctl seen =
  let spins = ref spin_budget in
  let g = ref seen in
  while !g = seen do
    if Atomic.get ctl.w_quit then g := -1
    else if Atomic.get ctl.w_gen <> seen then g := Atomic.get ctl.w_gen
    else if !spins > 0 then begin
      Domain.cpu_relax ();
      decr spins
    end
    else begin
      Mutex.lock ctl.w_mu;
      ctl.w_sleepers <- ctl.w_sleepers + 1;
      while Atomic.get ctl.w_gen = seen && not (Atomic.get ctl.w_quit) do
        Condition.wait ctl.w_cv ctl.w_mu
      done;
      ctl.w_sleepers <- ctl.w_sleepers - 1;
      Mutex.unlock ctl.w_mu;
      g := if Atomic.get ctl.w_quit then -1 else Atomic.get ctl.w_gen
    end
  done;
  !g

let window_worker ctl t exns ~nslots s =
  let seen = ref 0 in
  while !seen >= 0 do
    seen := await_window ctl !seen;
    if !seen >= 0 then begin
      drain_slot ~until:ctl.w_until t exns ~nslots s;
      Atomic.incr ctl.w_done;
      (* Only pay the futex wake when the coordinator stopped
         spinning: either it sees [w_waiting] false and our [incr]
         in its pre-sleep recheck, or it set [w_waiting] first and
         this broadcast reaches it. *)
      if Atomic.get ctl.w_waiting then begin
        Mutex.lock ctl.w_mu;
        Condition.broadcast ctl.w_cv;
        Mutex.unlock ctl.w_mu
      end
    end
  done

(* Release the workers into the next window. Wake only workers that
   gave up spinning and parked: a worker that is between its sleeper
   increment and its [Condition.wait] rechecks the generation under
   the mutex and skips the wait. *)
let release_workers ctl ~until =
  ctl.w_until <- until;
  Atomic.set ctl.w_done 0;
  Atomic.incr ctl.w_gen;
  Mutex.lock ctl.w_mu;
  if ctl.w_sleepers > 0 then Condition.broadcast ctl.w_cv;
  Mutex.unlock ctl.w_mu

(* Close the barrier: wait (spin, then sleep) until all [workers] have
   finished the window. *)
let await_workers ctl ~workers =
  let spins = ref spin_budget in
  while Atomic.get ctl.w_done < workers && !spins > 0 do
    Domain.cpu_relax ();
    decr spins
  done;
  if Atomic.get ctl.w_done < workers then begin
    Atomic.set ctl.w_waiting true;
    Mutex.lock ctl.w_mu;
    while Atomic.get ctl.w_done < workers do
      Condition.wait ctl.w_cv ctl.w_mu
    done;
    Mutex.unlock ctl.w_mu;
    Atomic.set ctl.w_waiting false
  end

let run ?(until = infinity) t =
  let start = t.events_run in
  let parts = t.parts in
  let nparts = Array.length parts in
  let nslots = min t.domains nparts in
  let exns = Array.make nparts None in
  let ctl =
    {
      w_mu = Mutex.create ();
      w_cv = Condition.create ();
      w_gen = Atomic.make 0;
      w_done = Atomic.make 0;
      w_quit = Atomic.make false;
      w_waiting = Atomic.make false;
      w_sleepers = 0;
      w_until = until;
    }
  in
  (* The ambient slots switch to their DLS cells before the first
     worker is spawned and back after the last is joined, in [stop],
     however the run ends. A 1-slot run spawns nothing and stays on
     the main domain's plain values. *)
  let workers = ref [] in
  let stop () =
    Atomic.set ctl.w_quit true;
    Mutex.lock ctl.w_mu;
    Condition.broadcast ctl.w_cv;
    Mutex.unlock ctl.w_mu;
    List.iter Domain.join !workers;
    if nslots > 1 then Ambient.end_shared ()
  in
  if nslots > 1 then Ambient.begin_shared ();
  Fun.protect ~finally:stop @@ fun () ->
  (* A new domain does not record backtraces; the workers follow the
     caller, so an event's exception keeps its backtrace on any slot. *)
  let record = Printexc.backtrace_status () in
  for s = 1 to nslots - 1 do
    workers :=
      Domain.spawn (fun () ->
          Printexc.record_backtrace record;
          window_worker ctl t exns ~nslots s)
      :: !workers
  done;
  let continue = ref true in
  while !continue do
    let i = global_min parts in
    if i < 0 || not (Heap.next_at_or_before parts.(i).p_heap until) then
      continue := false
    else begin
      let tmin = Heap.min_time parts.(i).p_heap in
      t.now <- tmin;
      t.horizon <- tmin +. t.lookahead;
      (* Disjoint per-partition seq blocks, low partitions first: the
         assignment depends only on the window sequence, never on the
         domain count or any interleaving. One partition's block is
         unbounded, and the global counter resumes where it ends. *)
      if nparts = 1 then begin
        parts.(0).p_seq_next <- t.seq + 1;
        parts.(0).p_seq_limit <- max_int
      end
      else
        for j = 0 to nparts - 1 do
          let p = parts.(j) in
          p.p_seq_next <- t.seq + 1;
          p.p_seq_limit <- t.seq + 1 + seq_block;
          t.seq <- t.seq + seq_block
        done;
      if nslots > 1 then release_workers ctl ~until;
      drain_slot ~until t exns ~nslots 0;
      if nslots > 1 then await_workers ctl ~workers:(nslots - 1);
      if nparts = 1 then t.seq <- parts.(0).p_seq_next - 1;
      let events = ref 0 in
      for j = 0 to nparts - 1 do
        (match exns.(j) with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ());
        events := !events + parts.(j).p_events
      done;
      t.events_run <- !events;
      merge_outboxes t
    end
  done;
  Array.iter (fun p -> if p.p_now > t.now then t.now <- p.p_now) parts;
  (* xenic-lint: allow FLOAT-CMP *)
  if until <> infinity && until > t.now then begin
    t.now <- until;
    Array.iter
      (fun p -> if until > p.p_now then p.p_now <- until)
      parts
  end;
  t.events_run - start

let events_run t = t.events_run

(* ------------------------------------------------------------------ *)
(* Ambient attribution state, owned by the engine. *)

let with_attrib t f =
  let prev = Attrib.install t.attrib in
  Fun.protect ~finally:(fun () -> ignore (Attrib.install prev)) f

let set_attrib_enabled t v =
  Attrib.set_state_enabled t.attrib v;
  Array.iter (fun p -> Attrib.set_state_enabled p.p_attrib v) t.parts

let reset_attrib t =
  Attrib.reset_state t.attrib;
  Array.iter (fun p -> Attrib.reset_state p.p_attrib) t.parts
