(* Tests for the discrete-event simulation substrate: engine ordering,
   processes, mailboxes, resources, and the network/PCIe device models. *)

open Xenic_sim

let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Heap *)

(* Drain a heap into [(time, seq, value)] list, checking the in-place
   key accessors agree with what pop returns. *)
let drain_heap h =
  let rec go acc =
    if Heap.is_empty h then List.rev acc
    else
      let time = Heap.min_time h in
      let seq = Heap.min_seq h in
      let v = Heap.pop h in
      go ((time, seq, v) :: acc)
  in
  go []

let test_heap_ordering () =
  let h = Heap.create ~dummy:(0.0, 0) in
  let values = [ (5.0, 1); (1.0, 2); (3.0, 3); (1.0, 4); (2.0, 5) ] in
  List.iter (fun (time, seq) -> Heap.push h ~time ~seq (time, seq)) values;
  let popped = List.map (fun (_, _, v) -> v) (drain_heap h) in
  Alcotest.(check (list (pair (float 0.0) int)))
    "time then seq order"
    [ (1.0, 2); (1.0, 4); (2.0, 5); (3.0, 3); (5.0, 1) ]
    popped

let test_heap_empty_raises () =
  let h = Heap.create ~dummy:() in
  Alcotest.check_raises "pop on empty"
    (Invalid_argument "Heap.pop: empty heap") (fun () -> Heap.pop h);
  Alcotest.check_raises "min_time on empty"
    (Invalid_argument "Heap.min_time: empty heap") (fun () ->
      ignore (Heap.min_time h));
  Alcotest.check_raises "min_seq on empty"
    (Invalid_argument "Heap.min_seq: empty heap") (fun () ->
      ignore (Heap.min_seq h));
  Alcotest.check_raises "precedes on empty"
    (Invalid_argument "Heap.precedes: empty heap") (fun () ->
      ignore (Heap.precedes h h));
  Heap.push h ~time:1.0 ~seq:1 ();
  Heap.pop h;
  Alcotest.(check bool) "empty again" true (Heap.is_empty h)

(* The bool-returning tests the windowed engine reads keys through. *)
let test_heap_in_place_tests () =
  let a = Heap.create ~dummy:() and b = Heap.create ~dummy:() in
  Alcotest.(check bool) "next_before on empty" false (Heap.next_before a 9.0);
  Heap.push a ~time:5.0 ~seq:7 ();
  Alcotest.(check bool) "next_before is strict" false (Heap.next_before a 5.0);
  Alcotest.(check bool) "next_before above" true (Heap.next_before a 5.5);
  Alcotest.(check bool) "next_at_or_before is not" true
    (Heap.next_at_or_before a 5.0);
  Heap.push b ~time:5.0 ~seq:3 ();
  Alcotest.(check bool) "equal times: lower seq first" true (Heap.precedes b a);
  Alcotest.(check bool) "equal times: higher seq second" false
    (Heap.precedes a b);
  Alcotest.(check bool) "irreflexive" false (Heap.precedes a a);
  Heap.push a ~time:4.0 ~seq:9 ();
  Alcotest.(check bool) "earlier time first, whatever the seq" true
    (Heap.precedes a b)

let test_heap_random_qcheck =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun times ->
      let h = Heap.create ~dummy:nan in
      List.iteri (fun i time -> Heap.push h ~time ~seq:i time) times;
      let rec drain last =
        if Heap.is_empty h then true
        else
          let t = Heap.min_time h in
          ignore (Heap.pop h);
          t >= last && drain t
      in
      drain neg_infinity)

(* Property: against a sorted-list reference model, a random
   interleaving of pushes and pops is indistinguishable — same keys,
   same values, same order, including FIFO tie-break on equal times.
   Times are drawn from a tiny domain so collisions are the common
   case, not the rare one. *)
let test_heap_model_qcheck =
  (* ops: true = push (with a time bucket), false = pop *)
  let gen = QCheck.(list (pair bool (int_bound 7))) in
  QCheck.Test.make ~name:"heap matches sorted-list reference model" ~count:500
    gen
    (fun ops ->
      let h = Heap.create ~dummy:(-1) in
      (* Reference model: list of (time, seq, value) kept sorted by
         (time, seq); stable sort preserves push order on ties. *)
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun (is_push, bucket) ->
          if is_push then begin
            incr seq;
            let time = float_of_int bucket in
            Heap.push h ~time ~seq:!seq !seq;
            model :=
              List.stable_sort
                (fun (t1, s1, _) (t2, s2, _) -> compare (t1, s1) (t2, s2))
                (!model @ [ (time, !seq, !seq) ])
          end
          else begin
            (match (!model, Heap.is_empty h) with
            | [], true -> ()
            | [], false | _ :: _, true -> ok := false
            | (mt, ms, mv) :: rest, false ->
                let t = Heap.min_time h in
                let s = Heap.min_seq h in
                let v = Heap.pop h in
                (* model times are small ints: float compare is exact *)
                (* xenic-lint: allow FLOAT-CMP *)
                if not (t = mt && s = ms && v = mv) then ok := false;
                model := rest);
            if (!model = []) <> Heap.is_empty h then ok := false
          end)
        ops;
      (* Drain what's left: full agreement to the end. *)
      List.iter
        (fun (mt, ms, mv) ->
          if Heap.is_empty h then ok := false
          else begin
            let t = Heap.min_time h in
            let s = Heap.min_seq h in
            let v = Heap.pop h in
            (* xenic-lint: allow FLOAT-CMP *)
            if not (t = mt && s = ms && v = mv) then ok := false
          end)
        !model;
      !ok && Heap.is_empty h)

(* Property: the engine dispatches same-timestamp events in scheduling
   order (FIFO tie-break), for random schedules full of collisions. *)
let test_engine_fifo_qcheck =
  QCheck.Test.make ~name:"engine FIFO tie-break on equal timestamps"
    ~count:300
    QCheck.(list (int_bound 5))
    (fun buckets ->
      let eng = Engine.create () in
      let log = ref [] in
      List.iteri
        (fun i bucket ->
          Engine.at eng (float_of_int bucket) (fun () -> log := i :: !log))
        buckets;
      ignore (Engine.run eng);
      let got = List.rev !log in
      (* Reference: stable sort of indices by time bucket. *)
      let want =
        List.mapi (fun i b -> (b, i)) buckets
        |> List.stable_sort (fun (b1, _) (b2, _) -> compare b1 b2)
        |> List.map snd
      in
      got = want)

(* Property: scheduling strictly in the past always raises, from any
   reached simulation time — the engine's non-monotonic-time guard. *)
let test_engine_no_past_qcheck =
  QCheck.Test.make ~name:"engine rejects past scheduling at any time"
    ~count:200
    QCheck.(pair (float_bound_exclusive 100.0) (float_bound_exclusive 100.0))
    (fun (t_reach, dt) ->
      let t_reach = t_reach +. 1.0 and dt = dt +. 0.5 in
      let eng = Engine.create () in
      let raised = ref false in
      Engine.at eng t_reach (fun () ->
          match Engine.at eng (t_reach -. dt) ignore with
          | () -> ()
          | exception Invalid_argument _ -> raised := true);
      ignore (Engine.run eng);
      !raised)

(* Property: windowed-mode partition handoff ordering. Two to four
   partitions (node [n] on partition [n]); root events scheduled at
   setup — so a root's seq is its setup position — at parent times in
   three clusters further apart than the lookahead, one window each,
   with equal parent times on different partitions. Each root schedules
   a few leaf events, onto its own partition or another, at three
   target times beyond every root's horizon, so the leaves of many
   parents and windows meet in equal-time batches. A destination must
   drain them in (target time, seq) order, where seqs are: a window's
   local schedules from the partition's block, carved at window open,
   before the window's handoffs, which the barrier numbers in (parent
   time, parent seq, schedule index) order. The drain order must also
   be bit-identical between a 1-domain and a 2-domain run. *)
let handoff_ptimes = [| 10.0; 20.0; 150.0; 160.0; 300.0 |]

let handoff_targets = [| 500.0; 550.0; 600.0 |]

(* The window of a parent time: its cluster. *)
let handoff_window ptime =
  if ptime < 100.0 then 0 else if ptime < 250.0 then 1 else 2

(* [roots] are (source, parent time index, [(destination, target index)]);
   a leaf's id is [8 * root index + schedule index]. *)
let run_handoff ~domains ~nparts roots =
  let eng = Engine.create ~domains () in
  Engine.set_topology ~lookahead:100.0 eng ~partitions:nparts
    ~node_partition:(fun n -> n);
  (* logs.(d) is only ever touched by partition d's events, so in the
     2-domain run each cell stays domain-local; the run/join barrier
     orders the final reads. *)
  let logs = Array.init nparts (fun _ -> ref []) in
  List.iteri
    (fun i (src, ti, kids) ->
      Engine.at ~node:src eng handoff_ptimes.(ti) (fun () ->
          List.iteri
            (fun k (dst, e) ->
              Engine.at ~node:dst eng handoff_targets.(e) (fun () ->
                  logs.(dst) := ((8 * i) + k) :: !(logs.(dst))))
            kids))
    roots;
  ignore (Engine.run eng);
  Array.map (fun l -> List.rev !l) logs

let handoff_expect ~nparts roots =
  let leaves =
    List.concat
      (List.mapi
         (fun i (src, ti, kids) ->
           let ptime = handoff_ptimes.(ti) in
           List.mapi
             (fun k (dst, e) ->
               ( dst,
                 ( handoff_targets.(e),
                   handoff_window ptime,
                   (if dst = src then 0 else 1),
                   ptime,
                   i,
                   k ),
                 (8 * i) + k ))
             kids)
         roots)
  in
  Array.init nparts (fun d ->
      List.filter (fun (dst, _, _) -> dst = d) leaves
      |> List.sort (fun (_, a, _) (_, b, _) -> compare a b)
      |> List.map (fun (_, _, id) -> id))

let test_engine_handoff_order_qcheck =
  QCheck.Test.make
    ~name:"windowed handoff drains equal-time batch in global seq order"
    ~count:150
    QCheck.(
      pair (int_range 2 4)
        (list_of_size
           Gen.(0 -- 24)
           (triple (int_bound 3) (int_bound 4)
              (list_of_size Gen.(1 -- 4) (pair (int_bound 3) (int_bound 2))))))
    (fun (nparts, raw) ->
      let roots =
        List.map
          (fun (s, ti, kids) ->
            (s mod nparts, ti, List.map (fun (d, e) -> (d mod nparts, e)) kids))
          raw
      in
      let one = run_handoff ~domains:1 ~nparts roots in
      let two = run_handoff ~domains:2 ~nparts roots in
      one = two && one = handoff_expect ~nparts roots)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_event_order () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.after eng 10.0 (fun () -> log := "b" :: !log);
  Engine.after eng 5.0 (fun () -> log := "a" :: !log);
  Engine.after eng 10.0 (fun () -> log := "c" :: !log);
  ignore (Engine.run eng);
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check_float "final time" 10.0 (Engine.now eng)

let test_engine_until () =
  let eng = Engine.create () in
  let hits = ref 0 in
  for i = 1 to 10 do
    Engine.after eng (float_of_int i) (fun () -> incr hits)
  done;
  ignore (Engine.run ~until:5.0 eng);
  Alcotest.(check int) "events up to t=5" 5 !hits;
  ignore (Engine.run eng);
  Alcotest.(check int) "all events" 10 !hits

let test_engine_no_past () =
  let eng = Engine.create () in
  Engine.after eng 5.0 (fun () ->
      Alcotest.check_raises "past scheduling rejected"
        (Invalid_argument "Engine.at: time 1.0 is before now 5.0") (fun () ->
          Engine.at eng 1.0 (fun () -> ())));
  ignore (Engine.run eng)

(* ------------------------------------------------------------------ *)
(* Processes *)

let test_process_sleep () =
  let eng = Engine.create () in
  let trace = ref [] in
  Process.spawn eng (fun () ->
      trace := (Engine.now eng, "start") :: !trace;
      Process.sleep eng 100.0;
      trace := (Engine.now eng, "mid") :: !trace;
      Process.sleep eng 50.0;
      trace := (Engine.now eng, "end") :: !trace);
  ignore (Engine.run eng);
  Alcotest.(check (list (pair (float 0.0) string)))
    "timeline"
    [ (0.0, "start"); (100.0, "mid"); (150.0, "end") ]
    (List.rev !trace)

let test_process_parallel () =
  let eng = Engine.create () in
  let result = ref [] in
  Process.spawn eng (fun () ->
      let rs =
        Process.parallel eng
          [
            (fun () ->
              Process.sleep eng 30.0;
              1);
            (fun () ->
              Process.sleep eng 10.0;
              2);
            (fun () ->
              Process.sleep eng 20.0;
              3);
          ]
      in
      result := [ (Engine.now eng, rs) ]);
  ignore (Engine.run eng);
  Alcotest.(check (list (pair (float 0.0) (list int))))
    "joined at max, ordered results"
    [ (30.0, [ 1; 2; 3 ]) ]
    !result

(* Branches finishing in the reverse of their order still join into a
   list in branch order, with float results too; a single thunk runs
   inline, in the caller's process: the context it sets stays set (a
   spawned process's would be undone when it suspends), and the call
   allocates nothing but the one-element result list. *)
let test_process_parallel_order () =
  let eng = Engine.create () in
  let got = ref [] and floats = ref [] and ctx_kept = ref false in
  let words = ref 0.0 in
  let mine = { Attrib.default with Attrib.phase = "inline" } in
  Process.spawn eng (fun () ->
      got :=
        Process.parallel eng
          (List.init 5 (fun i () ->
               Process.sleep eng (float_of_int (50 - (10 * i)));
               i));
      floats :=
        Process.parallel eng
          [
            (fun () ->
              Process.sleep eng 2.0;
              0.5);
            (fun () ->
              Process.sleep eng 1.0;
              1.5);
          ];
      let inline () =
        Attrib.set mine;
        7
      in
      let thunks = [ inline ] in
      let w0 = Gc.minor_words () in
      let r = Process.parallel eng thunks in
      words := Gc.minor_words () -. w0;
      ctx_kept := Attrib.get () == mine && r = [ 7 ]);
  ignore (Engine.run eng);
  Alcotest.(check (list int)) "branch order" [ 0; 1; 2; 3; 4 ] !got;
  Alcotest.(check (list (float 0.0))) "float results" [ 0.5; 1.5 ] !floats;
  Alcotest.(check bool) "single thunk ran inline" true !ctx_kept;
  Alcotest.(check bool)
    (Printf.sprintf "single thunk: %.0f words, the result list" !words)
    true (!words <= 3.0)

let test_suspend_outside_process () =
  Alcotest.check_raises "not in process" Process.Not_in_process (fun () ->
      ignore (Process.suspend (fun _ -> ())))

(* ------------------------------------------------------------------ *)
(* Mailbox *)

let test_mailbox_fifo () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let received = ref [] in
  Process.spawn eng (fun () ->
      for _ = 1 to 3 do
        received := Mailbox.recv mb :: !received
      done);
  Process.spawn eng (fun () ->
      Process.sleep eng 10.0;
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      Mailbox.send mb 3);
  ignore (Engine.run eng);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !received)

let test_mailbox_burst () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  List.iter (Mailbox.send mb) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "burst of 3" [ 1; 2; 3 ] (Mailbox.recv_burst mb ~max:3);
  Alcotest.(check (list int)) "rest" [ 4; 5 ] (Mailbox.recv_burst mb ~max:10);
  Alcotest.(check (list int)) "empty" [] (Mailbox.recv_burst mb ~max:10)

(* [park] parks a waiter where [recv] parks a process: a later [send]
   hands the value over through one zero-delay event, at the send's
   instant, and not inside the sender. *)
let test_mailbox_park_waits () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let got = ref [] in
  Mailbox.park mb
    (Mailbox.waiter ~dummy:0 (fun v -> got := (v, Engine.now eng) :: !got));
  let during_send = ref [] in
  Engine.at eng 5.0 (fun () ->
      Mailbox.send mb 42;
      during_send := !got);
  let events = Engine.run eng in
  Alcotest.(check (list (pair int (float 0.0)))) "not inside send" [] !during_send;
  Alcotest.(check (list (pair int (float 0.0))))
    "delivered at the send's instant" [ (42, 5.0) ] !got;
  Alcotest.(check int) "send event + one hand-off event" 2 events;
  Alcotest.(check (list int)) "nothing queued" [] (Mailbox.recv_burst mb ~max:8)

(* With messages queued, [park] hands the oldest to the waiter at once,
   so one waiter may park again right away. *)
let test_mailbox_park_queued () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  List.iter (Mailbox.send mb) [ 1; 2; 3 ];
  let got = ref [] in
  let w = Mailbox.waiter ~dummy:0 (fun v -> got := v :: !got) in
  for _ = 1 to 3 do
    Mailbox.park mb w
  done;
  Alcotest.(check (list int)) "taken at once, fifo" [ 1; 2; 3 ] (List.rev !got);
  Alcotest.(check int) "no event scheduled" 0 (Engine.run eng);
  Alcotest.(check (list int)) "drained" [] (Mailbox.recv_burst mb ~max:8)

(* ------------------------------------------------------------------ *)
(* Resource *)

let test_resource_serialization () =
  let eng = Engine.create () in
  let r = Resource.create eng ~name:"cpu" ~servers:1 in
  let finish = ref [] in
  for i = 1 to 3 do
    Process.spawn eng (fun () ->
        Resource.use r 10.0;
        finish := (i, Engine.now eng) :: !finish)
  done;
  ignore (Engine.run eng);
  Alcotest.(check (list (pair int (float 1e-6))))
    "fifo serialization"
    [ (1, 10.0); (2, 20.0); (3, 30.0) ]
    (List.rev !finish)

let test_resource_parallel_servers () =
  let eng = Engine.create () in
  let r = Resource.create eng ~name:"cpu" ~servers:2 in
  let finish = ref [] in
  for i = 1 to 4 do
    Process.spawn eng (fun () ->
        Resource.use r 10.0;
        finish := (i, Engine.now eng) :: !finish)
  done;
  ignore (Engine.run eng);
  let times = List.map snd (List.rev !finish) in
  Alcotest.(check (list (float 1e-6))) "two at a time" [ 10.0; 10.0; 20.0; 20.0 ] times

let test_resource_utilization () =
  let eng = Engine.create () in
  let r = Resource.create eng ~name:"cpu" ~servers:2 in
  Process.spawn eng (fun () -> Resource.use r 50.0);
  Engine.after eng 100.0 (fun () -> ());
  ignore (Engine.run eng);
  (* 50 busy server-ns out of 2 servers * 100 ns. *)
  check_float "utilization" 0.25 (Resource.utilization r)

let test_resource_release_twice () =
  let eng = Engine.create () in
  let r = Resource.create eng ~name:"cpu" ~servers:2 in
  Resource.acquire r;
  Resource.release r;
  Alcotest.check_raises "over-release rejected"
    (Invalid_argument "Resource.release: cpu released more times than acquired")
    (fun () -> Resource.release r)

(* ------------------------------------------------------------------ *)
(* Sanitizer (strict engines) *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_violation name sub violations =
  Alcotest.(check bool)
    (Printf.sprintf "%s reported (got: %s)" name (String.concat "; " violations))
    true
    (List.exists (fun v -> contains v sub) violations)

let test_sanitizer_clean_run () =
  let eng = Engine.create ~strict:true () in
  Alcotest.(check bool) "strict flag" true (Engine.strict eng);
  let r = Resource.create eng ~name:"cpu" ~servers:1 in
  let mb = Mailbox.create ~name:"mb" eng in
  Process.spawn eng (fun () ->
      Resource.use r 5.0;
      Mailbox.send mb 1);
  (* Blocked on the empty mailbox, then on the unit, until both are
     handed over. *)
  Process.spawn eng (fun () ->
      ignore (Mailbox.recv mb);
      Resource.use r 5.0);
  ignore (Engine.run eng);
  Alcotest.(check (list string)) "no violations" [] (Engine.sanitize eng)

let test_sanitizer_unreleased_resource () =
  let eng = Engine.create ~strict:true () in
  let r = Resource.create eng ~name:"dma" ~servers:2 in
  Process.spawn eng (fun () -> Resource.acquire r);
  ignore (Engine.run eng);
  check_violation "leaked unit" "resource dma: 1 unit(s) acquired"
    (Engine.sanitize eng)

let test_sanitizer_undelivered_mailbox () =
  let eng = Engine.create ~strict:true () in
  let mb = Mailbox.create ~name:"rx0" eng in
  Mailbox.send mb "lost";
  ignore (Engine.run eng);
  check_violation "undelivered message" "mailbox rx0: 1 undelivered"
    (Engine.sanitize eng)

let test_sanitizer_park_undelivered () =
  let eng = Engine.create ~strict:true () in
  let mb = Mailbox.create ~name:"rx1" eng in
  let got = ref [] in
  (* One parked waiter takes one item and does not park again. *)
  Mailbox.park mb (Mailbox.waiter ~dummy:"" (fun v -> got := v :: !got));
  Engine.at eng 1.0 (fun () ->
      Mailbox.send mb "first";
      Mailbox.send mb "second");
  ignore (Engine.run eng);
  Alcotest.(check (list string)) "one delivered" [ "first" ] !got;
  check_violation "undelivered message" "mailbox rx1: 1 undelivered"
    (Engine.sanitize eng)

let test_sanitizer_double_resume () =
  let eng = Engine.create ~strict:true () in
  let order = ref [] in
  Process.spawn eng (fun () ->
      Process.suspend (fun resume ->
          Engine.after eng 1.0 (fun () -> resume ());
          Engine.after eng 2.0 (fun () -> resume ()));
      order := "woke" :: !order);
  ignore (Engine.run eng);
  Alcotest.(check (list string)) "woke exactly once" [ "woke" ] !order;
  check_violation "double resume" "resumed twice" (Engine.sanitize eng)

let test_sanitizer_off_by_default () =
  let eng = Engine.create () in
  let r = Resource.create eng ~name:"stuck" ~servers:1 in
  let mb = Mailbox.create ~name:"lost" eng in
  (* A leaked unit, an acquirer blocked on it for good and an
     undelivered message: each a violation on a strict engine. *)
  Process.spawn eng (fun () -> Resource.acquire r);
  Process.spawn eng (fun () -> Resource.acquire r);
  Mailbox.send mb ();
  ignore (Engine.run eng);
  Alcotest.(check (list string))
    "non-strict engines record nothing" [] (Engine.sanitize eng)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.0)) "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_split_independence () =
  let a = Rng.create ~seed:7L in
  let c = Rng.split a in
  let x = Rng.float c in
  let a2 = Rng.create ~seed:7L in
  let c2 = Rng.split a2 in
  Alcotest.(check (float 0.0)) "split deterministic" x (Rng.float c2)

let test_rng_uniform_qcheck =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair (int_bound 1000) small_int)
    (fun (seed, bound) ->
      let bound = max 1 bound in
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let test_rng_mean () =
  let rng = Rng.create ~seed:1L in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

(* ------------------------------------------------------------------ *)
(* Fabric *)

let test_fabric_latency () =
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let fabric = Xenic_net.Fabric.create eng hw ~nodes:2 in
  let arrival = ref nan in
  Process.spawn eng (fun () ->
      let pkt = Mailbox.recv (Xenic_net.Fabric.rx fabric 1) in
      arrival := Engine.now eng;
      Alcotest.(check (list string)) "payload" [ "hello" ] pkt.Xenic_net.Packet.msgs);
  Xenic_net.Fabric.send fabric ~src:0 ~dst:1 ~payload_bytes:100 [ "hello" ];
  ignore (Engine.run eng);
  let rate = Xenic_params.Hw.link_rate hw in
  let expect =
    (2.0 *. float_of_int (100 + hw.eth_frame_overhead_b) /. rate)
    +. hw.wire_latency_ns
  in
  check_float "tx + wire + rx" expect !arrival

let test_fabric_bandwidth_saturation () =
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let fabric = Xenic_net.Fabric.create eng hw ~nodes:2 in
  (* 100 frames of ~1500B at 12.5 B/ns: serialization dominates. *)
  let n = 100 and bytes = 1500 - hw.eth_frame_overhead_b in
  let last = ref 0.0 in
  Process.spawn eng (fun () ->
      for _ = 1 to n do
        ignore (Mailbox.recv (Xenic_net.Fabric.rx fabric 1));
        last := Engine.now eng
      done);
  for _ = 1 to n do
    Xenic_net.Fabric.send fabric ~src:0 ~dst:1 ~payload_bytes:bytes []
  done;
  ignore (Engine.run eng);
  let rate = Xenic_params.Hw.link_rate hw in
  let min_serialization = float_of_int (n * 1500) /. rate in
  Alcotest.(check bool)
    "total time bounded below by link serialization" true
    (!last >= min_serialization)

let test_aggregator_batches () =
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let fabric = Xenic_net.Fabric.create eng hw ~nodes:2 in
  let agg = Xenic_net.Aggregator.create fabric ~src:0 ~enabled:true ~dummy:"" in
  let got = ref [] in
  Process.spawn eng (fun () ->
      let pkt = Mailbox.recv (Xenic_net.Fabric.rx fabric 1) in
      got := pkt.Xenic_net.Packet.msgs);
  (* Three small messages within the window coalesce into one frame. *)
  Xenic_net.Aggregator.push agg ~dst:1 ~bytes:50 "a";
  Xenic_net.Aggregator.push agg ~dst:1 ~bytes:50 "b";
  Xenic_net.Aggregator.push agg ~dst:1 ~bytes:50 "c";
  ignore (Engine.run eng);
  Alcotest.(check (list string)) "one frame, three msgs" [ "a"; "b"; "c" ] !got;
  Alcotest.(check int) "frames" 1 (Xenic_net.Aggregator.frames agg)

let test_aggregator_disabled () =
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let fabric = Xenic_net.Fabric.create eng hw ~nodes:2 in
  let agg = Xenic_net.Aggregator.create fabric ~src:0 ~enabled:false ~dummy:"" in
  let frames = ref 0 in
  Process.spawn eng (fun () ->
      for _ = 1 to 3 do
        ignore (Mailbox.recv (Xenic_net.Fabric.rx fabric 1));
        incr frames
      done);
  for _ = 1 to 3 do
    Xenic_net.Aggregator.push agg ~dst:1 ~bytes:50 "x"
  done;
  ignore (Engine.run eng);
  Alcotest.(check int) "frame per message" 3 !frames

(* A flushed batch leaves no message behind: its gather slot holds the
   dummy, so once the frame is taken from the mailbox the message is
   garbage. *)
let test_aggregator_retains_nothing () =
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let fabric = Xenic_net.Fabric.create eng hw ~nodes:2 in
  let agg =
    Xenic_net.Aggregator.create fabric ~src:0 ~enabled:true ~dummy:Bytes.empty
  in
  let seen = Weak.create 1 in
  (let msg = Bytes.make 16 'm' in
   Weak.set seen 0 (Some msg);
   Xenic_net.Aggregator.push agg ~dst:1 ~bytes:16 msg);
  ignore (Engine.run eng);
  let rx = Xenic_net.Fabric.rx fabric 1 in
  Alcotest.(check int) "one frame delivered" 1
    (List.length (Mailbox.recv_burst rx ~max:8));
  Gc.full_major ();
  Alcotest.(check bool) "message collected" false (Weak.check seen 0);
  (* The aggregator is still live here, so its slots were scanned. *)
  Alcotest.(check int) "one frame sent" 1 (Xenic_net.Aggregator.frames agg)

let test_aggregator_stale_timer () =
  (* Regression: a window timer armed for a batch that was then flushed
     by the size trigger must not fire into the next batch — the stale
     timer used to cut the successor's aggregation window short. *)
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let fabric = Xenic_net.Fabric.create eng hw ~nodes:2 in
  let agg = Xenic_net.Aggregator.create fabric ~src:0 ~enabled:true ~dummy:"" in
  let w = hw.agg_window_ns in
  Process.spawn eng (fun () ->
      ignore (Mailbox.recv (Xenic_net.Fabric.rx fabric 1));
      ignore (Mailbox.recv (Xenic_net.Fabric.rx fabric 1)));
  Process.spawn eng (fun () ->
      (* Batch A: arm the window timer, then overflow the MTU so the
         size trigger flushes synchronously, leaving the timer stale. *)
      Xenic_net.Aggregator.push agg ~dst:1 ~bytes:50 "a0";
      for _ = 1 to 4 do
        Xenic_net.Aggregator.push agg ~dst:1 ~bytes:400 "a"
      done;
      Alcotest.(check int) "batch A flushed by size" 1
        (Xenic_net.Aggregator.frames agg);
      (* Batch B starts mid-window of the stale timer; it must get its
         own full aggregation window (flush at 1.5w), not be cut short
         when the stale timer fires at w. *)
      Process.sleep eng (0.5 *. w);
      Xenic_net.Aggregator.push agg ~dst:1 ~bytes:50 "b");
  ignore (Engine.run ~until:(1.25 *. w) eng);
  Alcotest.(check int) "stale timer did not flush batch B" 1
    (Xenic_net.Aggregator.frames agg);
  ignore (Engine.run eng);
  Alcotest.(check int) "two frames" 2 (Xenic_net.Aggregator.frames agg)

let test_fabric_accounting () =
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let fabric = Xenic_net.Fabric.create eng hw ~nodes:2 in
  let rx = Xenic_net.Fabric.rx fabric 1 in
  Xenic_net.Fabric.send fabric ~src:0 ~dst:1 ~payload_bytes:100 [ "x" ];
  ignore (Engine.run eng);
  match Mailbox.recv_burst rx ~max:8 with
  | [ pkt ] ->
      Alcotest.(check int) "bytes include framing"
        (100 + hw.eth_frame_overhead_b)
        pkt.Xenic_net.Packet.wire_bytes
  | frames -> Alcotest.failf "%d frames delivered, expected 1" (List.length frames)

let test_aggregator_mtu_flush () =
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let fabric = Xenic_net.Fabric.create eng hw ~nodes:2 in
  let agg = Xenic_net.Aggregator.create fabric ~src:0 ~enabled:true ~dummy:"" in
  let count = ref 0 in
  Process.spawn eng (fun () ->
      let pkt = Mailbox.recv (Xenic_net.Fabric.rx fabric 1) in
      count := List.length pkt.Xenic_net.Packet.msgs);
  (* Push enough bytes to exceed the MTU: the gather list flushes
     immediately, without waiting for the window timer. *)
  for _ = 1 to 4 do
    Xenic_net.Aggregator.push agg ~dst:1 ~bytes:400 "m"
  done;
  Alcotest.(check int) "flushed synchronously on MTU" 1
    (Xenic_net.Aggregator.frames agg);
  ignore (Engine.run eng);
  Alcotest.(check bool) "several messages in frame" true (!count >= 3)

(* ------------------------------------------------------------------ *)
(* DMA engine *)

let test_dma_single_latency () =
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let dma = Xenic_pcie.Dma.create eng hw in
  Xenic_pcie.Dma.set_vectored dma false;
  let t_done = ref nan in
  Process.spawn eng (fun () ->
      Xenic_pcie.Dma.read dma ~bytes:64;
      t_done := Engine.now eng);
  ignore (Engine.run eng);
  let expect =
    hw.dma_submit_ns +. hw.dma_engine_elem_ns +. hw.dma_read_completion_ns
    +. (64.0 /. Xenic_params.Hw.pcie_rate hw)
  in
  check_float "single read latency" expect !t_done

let test_dma_vector_amortization () =
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let dma = Xenic_pcie.Dma.create eng hw in
  let n = 150 in
  let completions = ref 0 in
  for i = 0 to n - 1 do
    Xenic_pcie.Dma.submit dma Xenic_pcie.Dma.Write ~bytes:64 ~queue:(i mod 8)
      (fun () -> incr completions)
  done;
  ignore (Engine.run eng);
  Alcotest.(check int) "all complete" n !completions;
  (* Vectored submission should need far fewer vectors than ops. *)
  Alcotest.(check bool)
    "vectors amortized" true
    (Xenic_pcie.Dma.vectors_issued dma <= (n / 8) + 8)

let test_dma_throughput_cap () =
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let dma = Xenic_pcie.Dma.create eng hw in
  (* Saturate one queue with full vectors; throughput per queue must be
     near 1/dma_engine_elem_ns = 8.7 Mops/s. *)
  let n = 1500 in
  let last = ref 0.0 in
  for _ = 1 to n do
    Xenic_pcie.Dma.submit dma Xenic_pcie.Dma.Write ~bytes:16 ~queue:0 (fun () ->
        last := Engine.now eng)
  done;
  ignore (Engine.run eng);
  let mops = float_of_int n /. !last *. 1_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "one-queue throughput ~8.7Mops (got %.2f)" mops)
    true
    (mops > 7.0 && mops < 9.5)

let test_dma_stale_gather_timer () =
  (* Regression: a gather timer armed for a vector that the size limit
     then flushed must not fire into the next vector — the stale timer
     used to cut the successor's gather window short. *)
  let eng = Engine.create () in
  let hw = Xenic_params.Hw.testbed in
  let dma = Xenic_pcie.Dma.create eng hw in
  let submit () =
    Xenic_pcie.Dma.submit dma Xenic_pcie.Dma.Write ~bytes:64 ~queue:0 ignore
  in
  (* The first request arms the 150 ns gather timer; the size limit
     flushes the full vector at once, leaving that timer stale. *)
  for _ = 1 to hw.dma_vector_max do
    submit ()
  done;
  Alcotest.(check int) "full vector flushed by size" 1
    (Xenic_pcie.Dma.vectors_issued dma);
  (* The next request arrives mid-window of the stale timer; it must get
     its own full window (flush at 250), not be flushed at 150. *)
  Engine.at eng 100.0 submit;
  ignore (Engine.run ~until:249.0 eng);
  Alcotest.(check int) "stale timer did not flush at 150" 1
    (Xenic_pcie.Dma.vectors_issued dma);
  ignore (Engine.run ~until:250.0 eng);
  Alcotest.(check int) "flushed when its own window closed" 2
    (Xenic_pcie.Dma.vectors_issued dma);
  ignore (Engine.run eng)

(* ------------------------------------------------------------------ *)
(* Callback pipelines: attribution and contention *)

let ctx_named name = { Attrib.stack = name; node = 0; phase = "p"; cls = "c" }

let ambient = ctx_named "ambient"

(* Per-context (wait, service) of a resource, keyed by the context's
   stack name. *)
let stat_rows r =
  List.map
    (fun (c, v) -> (c.Attrib.stack, (v.Resource.v_wait_ns, v.Resource.v_service_ns)))
    (Resource.stats r)

let check_rows name want r =
  Alcotest.(check (list (pair string (pair (float 1e-9) (float 1e-9)))))
    name want (stat_rows r)

(* Spawn [f] under context [c] with attribution on. The spawn runs
   under the engine's ambient state, whose context is [ambient]. *)
let spawn_in eng c f =
  Engine.with_attrib eng (fun () ->
      Attrib.set ambient;
      Process.spawn eng (fun () ->
          Attrib.set c;
          f ()))

(* Probe events every 0.5 ns: each sees the context the previous
   instant's events left behind, which must be the ambient one. *)
let probe_ambient eng ~until =
  let leaks = ref 0 in
  let rec go t =
    if t <= until then begin
      Engine.at eng t (fun () ->
          if Attrib.compare_ctx (Attrib.get ()) ambient <> 0 then incr leaks);
      go (t +. 0.5)
    end
  in
  go 0.25;
  leaks

let test_fabric_attribution () =
  (* A and C leave node 0, B leaves node 1, all for node 2 at t=0: C
     queues behind A on tx0, and B behind A on rx2, then C behind B. *)
  let eng = Engine.create () in
  Engine.set_attrib_enabled eng true;
  let hw = Xenic_params.Hw.testbed in
  let fabric = Xenic_net.Fabric.create eng hw ~nodes:3 in
  let payload_bytes = 100 in
  let send name ~src =
    spawn_in eng (ctx_named name) (fun () ->
        Xenic_net.Fabric.send fabric ~src ~dst:2 ~payload_bytes [ name ])
  in
  send "A" ~src:0;
  send "B" ~src:1;
  send "C" ~src:0;
  let s =
    float_of_int (payload_bytes + hw.eth_frame_overhead_b)
    /. Xenic_params.Hw.link_rate hw
  in
  let leaks = probe_ambient eng ~until:((4.0 *. s) +. hw.wire_latency_ns +. 1.0) in
  ignore (Engine.run eng);
  Alcotest.(check (list string)) "delivery order" [ "A"; "B"; "C" ]
    (List.concat_map
       (fun p -> p.Xenic_net.Packet.msgs)
       (Mailbox.recv_burst (Xenic_net.Fabric.rx fabric 2) ~max:4));
  let res = Array.of_list (Xenic_net.Fabric.resources fabric) in
  check_rows "tx0" [ ("A", (0.0, s)); ("C", (s, s)) ] res.(0);
  check_rows "tx1" [ ("B", (0.0, s)) ] res.(2);
  check_rows "rx2 (contended)"
    [ ("A", (0.0, s)); ("B", (s, s)); ("C", (s, s)) ]
    res.(5);
  Alcotest.(check int) "callbacks left the ambient context alone" 0 !leaks;
  Alcotest.(check int) "ambient context after the run" 0
    (Attrib.compare_ctx ambient (Engine.with_attrib eng Attrib.get))

let test_dma_attribution () =
  let eng = Engine.create () in
  Engine.set_attrib_enabled eng true;
  let hw = Xenic_params.Hw.testbed in
  let dma = Xenic_pcie.Dma.create eng hw in
  Xenic_pcie.Dma.set_vectored dma false;
  let bytes = 64 in
  spawn_in eng (ctx_named "C") (fun () ->
      Xenic_pcie.Dma.write ~queue:0 dma ~bytes);
  let bus = float_of_int bytes /. Xenic_params.Hw.pcie_rate hw in
  let service = hw.dma_submit_ns +. hw.dma_engine_elem_ns in
  let leaks =
    probe_ambient eng ~until:(bus +. service +. hw.dma_write_completion_ns +. 1.0)
  in
  ignore (Engine.run eng);
  let res = Xenic_pcie.Dma.resources dma in
  check_rows "pcie bus" [ ("C", (0.0, bus)) ] (List.nth res hw.dma_queues);
  check_rows "dma queue 0" [ ("C", (0.0, service)) ] (List.hd res);
  Alcotest.(check int) "callbacks left the ambient context alone" 0 !leaks

(* The same contended workload through blocking [use] and through
   [use_then]: identical completion order, times and event count. *)
let test_use_then_matches_use () =
  let durations = [ 30.0; 10.0; 20.0; 5.0 ] in
  let run use =
    let eng = Engine.create () in
    let r = Resource.create eng ~name:"cpu" ~servers:2 in
    let done_ = ref [] in
    List.iteri
      (fun i d -> use eng r d (fun () -> done_ := (i, Engine.now eng) :: !done_))
      durations;
    ignore (Engine.run eng);
    (List.rev !done_, Engine.events_run eng, Resource.busy_time r)
  in
  let blocking eng r d k =
    Process.spawn eng (fun () ->
        Resource.use r d;
        k ())
  in
  let callback _ r d k = Resource.use_then r d k in
  let order_b, events_b, busy_b = run blocking in
  let order_c, events_c, busy_c = run callback in
  Alcotest.(check (list (pair int (float 1e-9))))
    "completion order and times" [ (1, 10.0); (0, 30.0); (2, 30.0); (3, 35.0) ]
    order_b;
  Alcotest.(check (list (pair int (float 1e-9)))) "use_then = use" order_b order_c;
  Alcotest.(check int) "same event count" events_b events_c;
  Alcotest.(check (float 1e-9)) "same busy time" busy_b busy_c

let test_use_then_fifo_with_use () =
  (* Blocking and callback holders queue in one FIFO. *)
  let eng = Engine.create () in
  let r = Resource.create eng ~name:"cpu" ~servers:1 in
  let done_ = ref [] in
  let finish i () = done_ := (i, Engine.now eng) :: !done_ in
  for i = 0 to 3 do
    if i mod 2 = 0 then
      Process.spawn eng (fun () ->
          Resource.use r 10.0;
          finish i ())
    else Resource.use_then r 10.0 (finish i)
  done;
  ignore (Engine.run eng);
  Alcotest.(check (list (pair int (float 1e-9))))
    "fifo across both forms"
    [ (0, 10.0); (1, 20.0); (2, 30.0); (3, 40.0) ]
    (List.rev !done_)

let test_sanitizer_unfinished_callback_hold () =
  let eng = Engine.create ~strict:true () in
  let r = Resource.create eng ~name:"link" ~servers:1 in
  Resource.use_then r 100.0 ignore;
  Resource.use_then r 100.0 ignore;
  ignore (Engine.run ~until:50.0 eng);
  let v = Engine.sanitize eng in
  check_violation "held unit" "resource link: 1 unit(s) acquired" v;
  check_violation "queued callback" "resource link: 1 acquirer(s) still blocked" v

(* ------------------------------------------------------------------ *)
(* Allocation ratchet: minor-heap words per operation on a non-strict
   engine, so a change that makes process switching or the device
   pipelines allocate more fails here rather than only in the
   benchmark. Each bound is the measured count rounded up (OCaml 5.1,
   no flambda; DESIGN.md §18 has the table). Lower a bound when an
   optimisation lands. *)

let ratchet_ops = 10_000

let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let check_words name ~bound words =
  let per_op = words /. float_of_int ratchet_ops in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f words/op within %g" name per_op bound)
    true (per_op <= bound)

(* Words of one process doing [op] [ratchet_ops] times. *)
let process_words op =
  let eng = Engine.create () in
  let op = op eng in
  let body () =
    for _ = 1 to ratchet_ops do
      op ()
    done
  in
  minor_words_of (fun () ->
      Process.spawn eng body;
      ignore (Engine.run eng))

let test_alloc_sleep () =
  check_words "sleep" ~bound:12.0
    (process_words (fun eng () -> Process.sleep eng 1.0))

let test_alloc_spawn () =
  let eng = Engine.create () in
  let body () = () in
  check_words "spawn + exit" ~bound:5.0
    (minor_words_of (fun () ->
         for _ = 1 to ratchet_ops do
           Process.spawn eng body
         done))

let test_alloc_use () =
  check_words "uncontended Resource.use" ~bound:12.0
    (process_words (fun eng ->
         let r = Resource.create eng ~name:"cpu" ~servers:1 in
         fun () -> Resource.use r 1.0))

(* A bump of an existing counter writes its flat cell in place. *)
let test_alloc_counter_incr () =
  let c = Xenic_stats.Counter.create () in
  Xenic_stats.Counter.incr c "msgs";
  check_words "Counter.incr on an existing name" ~bound:0.0
    (minor_words_of (fun () ->
         for _ = 1 to ratchet_ops do
           Xenic_stats.Counter.incr c "msgs"
         done))

(* Words of [ratchet_ops] operations issued one per event, 10 us apart
   so each runs uncontended, less the cost of the ticking itself. *)
let ticked_words op =
  let run op =
    let eng = Engine.create () in
    let op = op eng in
    let left = ref ratchet_ops in
    let rec tick () =
      op ();
      decr left;
      if !left > 0 then Engine.after eng 10_000.0 tick
    in
    minor_words_of (fun () ->
        tick ();
        ignore (Engine.run eng))
  in
  run op -. run (fun _ () -> ())

let test_alloc_use_then () =
  check_words "uncontended Resource.use_then" ~bound:10.0
    (ticked_words (fun eng ->
         let r = Resource.create eng ~name:"cpu" ~servers:1 in
         fun () -> Resource.use_then r 1.0 ignore))

let test_alloc_fabric_frame () =
  let hw = Xenic_params.Hw.testbed in
  check_words "Fabric.send frame into a mailbox" ~bound:37.0
    (ticked_words (fun eng ->
         let fabric = Xenic_net.Fabric.create eng hw ~nodes:2 in
         fun () ->
           Xenic_net.Fabric.send fabric ~src:0 ~dst:1 ~payload_bytes:64 []))

let test_alloc_dma_write () =
  let hw = Xenic_params.Hw.testbed in
  check_words "single-element DMA write" ~bound:34.0
    (ticked_words (fun eng ->
         let dma = Xenic_pcie.Dma.create eng hw in
         Xenic_pcie.Dma.set_vectored dma false;
         fun () ->
           Xenic_pcie.Dma.submit dma Xenic_pcie.Dma.Write ~bytes:64 ~queue:0
             ignore))

(* One message through the aggregator, flushed by its window timer into
   a frame of its own. The gather slots hold messages, not options of
   them; a [Some] per message made it 46. *)
let test_alloc_aggregated_message () =
  let hw = Xenic_params.Hw.testbed in
  check_words "Aggregator.push flushed by its window" ~bound:44.0
    (ticked_words (fun eng ->
         let fabric = Xenic_net.Fabric.create eng hw ~nodes:2 in
         let agg = Xenic_net.Aggregator.create fabric ~src:0 ~enabled:true ~dummy:() in
         fun () -> Xenic_net.Aggregator.push agg ~dst:1 ~bytes:16 ()))

(* A one-reply frame into node 1's dispatch loop: the frame, the NIC's
   packet-I/O hold and the reply's delivery in the dispatch event. The
   loop parks with a mailbox waiter it built once; a waiter and its
   closure per park made it 65, and a [Some] per hand-over 57. *)
let test_alloc_reply_dispatch () =
  let hw = Xenic_params.Hw.testbed in
  check_words "reply frame through a dispatch loop" ~bound:53.0
    (ticked_words (fun eng ->
         let cfg = Xenic_cluster.Config.make ~nodes:2 ~replication:1 in
         let ctl =
           Xenic_proto.Control.create eng hw cfg ~stack:"T" ~partitions:0
             ~armed:false ~table:(fun () ->
               Xenic_cluster.Storage.Chained
                 (Xenic_store.Chained.create ~buckets:1 ~b:1))
         in
         let nic = Xenic_nicdev.Smartnic.create eng hw in
         Xenic_proto.Control.dispatch_loop ctl ~node:1
           ~pkt_io:
             (Some
                ( Xenic_nicdev.Smartnic.pkt_io_path nic,
                  fun () -> Xenic_nicdev.Smartnic.pkt_io_ns nic ));
         fun () ->
           Xenic_net.Fabric.send ctl.fabric ~src:0 ~dst:1 ~payload_bytes:64
             [
               Xenic_proto.Control.message ~bytes:16
                 Xenic_proto.Control.In_place ignore;
             ]))

(* One-sided RDMA verbs from a process: the verb's record and step
   closure, its twelve engine events, its two wire-leg frames and the
   caller's one suspension. A verb that was a process of its own,
   sleeping through each stage, made it 154; a batch that forked a
   process per verb made three 609. *)
let rdma_words op =
  process_words (fun eng ->
      let fabric : (unit -> unit) Xenic_net.Fabric.t =
        Xenic_net.Fabric.create eng Xenic_params.Hw.testbed ~nodes:2
      in
      op (Xenic_nicdev.Rdma.create fabric))

let test_alloc_verb () =
  check_words "one-sided verb" ~bound:127.0
    (rdma_words (fun rdma () ->
         Xenic_nicdev.Rdma.one_sided rdma ~src:0 ~dst:1 Xenic_nicdev.Rdma.Write
           ~bytes:64 ~at_target:ignore))

let test_alloc_doorbell_batch () =
  check_words "doorbell batch of 3" ~bound:423.0
    (rdma_words (fun rdma () ->
         ignore
           (Xenic_nicdev.Rdma.one_sided_many rdma ~src:0
              (List.init 3 (fun _ -> (1, Xenic_nicdev.Rdma.Write, 64, ignore))))))

(* The event heap moves int slot indices, never the stored closures:
   a push and a pop allocate nothing. *)
let test_alloc_heap () =
  let h = Heap.create ~dummy:0 in
  for i = 1 to 1000 do
    Heap.push h ~time:(float_of_int (i mod 7)) ~seq:i i
  done;
  (* Constant times, so the loop boxes no float argument of its own. *)
  let early = 2.0 and late = 9.0 in
  check_words "Heap.push + Heap.pop" ~bound:0.0
    (minor_words_of (fun () ->
         for i = 1 to ratchet_ops do
           let time = if i land 1 = 0 then early else late in
           Heap.push h ~time ~seq:(1000 + i) i;
           ignore (Heap.pop h : int)
         done))

(* The windowed engine: two partitions on one domain, each draining a
   burst of 50 same-instant events per window. Every event is scheduled
   before the count starts, so it is the engine's own: one boxed clock
   value per window and per drained instant. Boxing each event's time
   and a [Some] per drain made it 3.3. *)
let test_alloc_windowed_event () =
  let burst = 50 in
  let eng = Engine.create ~domains:1 () in
  Engine.set_topology ~lookahead:100.0 eng ~partitions:2
    ~node_partition:(fun n -> n);
  for w = 0 to (ratchet_ops / (2 * burst)) - 1 do
    let time = float_of_int (1 + (1000 * w)) in
    for n = 0 to 1 do
      for _ = 1 to burst do
        Engine.at ~node:n eng time ignore
      done
    done
  done;
  check_words "windowed event in a same-instant burst" ~bound:0.1
    (minor_words_of (fun () -> ignore (Engine.run eng)))

(* A cross-partition handoff: a parent event on partition 0 schedules a
   child onto partition 1, 50 parents per instant and one instant per
   window. Counted per handoff: the parent, the handoff and the child.
   The merge reads the child's time from the outbox in place
   ([Heap.push_at]); boxing it for [Heap.push] made it 2.37, and a
   record per handoff in per-pair rings, gathered as [Some]/tuple/cons
   and sorted with [List.sort], made it 40.7. *)
let test_alloc_windowed_handoff () =
  let burst = 50 in
  let eng = Engine.create ~domains:1 () in
  Engine.set_topology ~lookahead:100.0 eng ~partitions:2
    ~node_partition:(fun n -> n);
  let dst = Some 1 in
  for w = 0 to (ratchet_ops / burst) - 1 do
    let time = float_of_int (1 + (1000 * w)) in
    let target = time +. 500.0 in
    let parent () = Engine.at ?node:dst eng target ignore in
    for _ = 1 to burst do
      Engine.at ~node:0 eng time parent
    done
  done;
  check_words "cross-partition handoff" ~bound:0.4
    (minor_words_of (fun () -> ignore (Engine.run eng)))

(* The generator's state stays unboxed: a draw allocates nothing. *)
let test_alloc_rng () =
  let rng = Rng.create ~seed:42L in
  let sum = ref 0 in
  check_words "Rng.int" ~bound:0.0
    (minor_words_of (fun () ->
         for _ = 1 to ratchet_ops do
           sum := !sum + Rng.int rng 1000
         done));
  ignore (Sys.opaque_identity !sum)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "xenic_sim"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "empty raises" `Quick test_heap_empty_raises;
          Alcotest.test_case "in-place tests" `Quick test_heap_in_place_tests;
          qt test_heap_random_qcheck;
          qt test_heap_model_qcheck;
        ] );
      ( "engine",
        [
          Alcotest.test_case "event order" `Quick test_engine_event_order;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "no past scheduling" `Quick test_engine_no_past;
          qt test_engine_fifo_qcheck;
          qt test_engine_no_past_qcheck;
          qt test_engine_handoff_order_qcheck;
        ] );
      ( "process",
        [
          Alcotest.test_case "sleep timeline" `Quick test_process_sleep;
          Alcotest.test_case "parallel join" `Quick test_process_parallel;
          Alcotest.test_case "parallel order and inline" `Quick
            test_process_parallel_order;
          Alcotest.test_case "suspend outside" `Quick test_suspend_outside_process;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "burst" `Quick test_mailbox_burst;
          Alcotest.test_case "park waits for send" `Quick
            test_mailbox_park_waits;
          Alcotest.test_case "park takes queued" `Quick
            test_mailbox_park_queued;
        ] );
      ( "resource",
        [
          Alcotest.test_case "serialization" `Quick test_resource_serialization;
          Alcotest.test_case "parallel servers" `Quick test_resource_parallel_servers;
          Alcotest.test_case "utilization" `Quick test_resource_utilization;
          Alcotest.test_case "release twice" `Quick test_resource_release_twice;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "clean run" `Quick test_sanitizer_clean_run;
          Alcotest.test_case "unreleased resource" `Quick
            test_sanitizer_unreleased_resource;
          Alcotest.test_case "undelivered mailbox" `Quick
            test_sanitizer_undelivered_mailbox;
          Alcotest.test_case "park undelivered" `Quick
            test_sanitizer_park_undelivered;
          Alcotest.test_case "double resume" `Quick test_sanitizer_double_resume;
          Alcotest.test_case "off by default" `Quick
            test_sanitizer_off_by_default;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split" `Quick test_rng_split_independence;
          Alcotest.test_case "mean" `Quick test_rng_mean;
          qt test_rng_uniform_qcheck;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "latency" `Quick test_fabric_latency;
          Alcotest.test_case "bandwidth" `Quick test_fabric_bandwidth_saturation;
          Alcotest.test_case "aggregation" `Quick test_aggregator_batches;
          Alcotest.test_case "aggregation off" `Quick test_aggregator_disabled;
          Alcotest.test_case "mtu flush" `Quick test_aggregator_mtu_flush;
          Alcotest.test_case "retains nothing" `Quick
            test_aggregator_retains_nothing;
          Alcotest.test_case "stale timer" `Quick test_aggregator_stale_timer;
          Alcotest.test_case "accounting" `Quick test_fabric_accounting;
        ] );
      ( "dma",
        [
          Alcotest.test_case "single latency" `Quick test_dma_single_latency;
          Alcotest.test_case "vector amortization" `Quick test_dma_vector_amortization;
          Alcotest.test_case "throughput cap" `Quick test_dma_throughput_cap;
          Alcotest.test_case "stale gather timer" `Quick
            test_dma_stale_gather_timer;
        ] );
      ( "callbacks",
        [
          Alcotest.test_case "fabric attribution" `Quick test_fabric_attribution;
          Alcotest.test_case "dma attribution" `Quick test_dma_attribution;
          Alcotest.test_case "use_then = use" `Quick test_use_then_matches_use;
          Alcotest.test_case "use_then fifo with use" `Quick
            test_use_then_fifo_with_use;
          Alcotest.test_case "unfinished callback hold" `Quick
            test_sanitizer_unfinished_callback_hold;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "sleep" `Quick test_alloc_sleep;
          Alcotest.test_case "spawn" `Quick test_alloc_spawn;
          Alcotest.test_case "resource use" `Quick test_alloc_use;
          Alcotest.test_case "counter incr" `Quick test_alloc_counter_incr;
          Alcotest.test_case "resource use_then" `Quick test_alloc_use_then;
          Alcotest.test_case "fabric frame" `Quick test_alloc_fabric_frame;
          Alcotest.test_case "one-sided verb" `Quick test_alloc_verb;
          Alcotest.test_case "doorbell batch" `Quick test_alloc_doorbell_batch;
          Alcotest.test_case "dma write" `Quick test_alloc_dma_write;
          Alcotest.test_case "aggregated message" `Quick
            test_alloc_aggregated_message;
          Alcotest.test_case "reply dispatch" `Quick test_alloc_reply_dispatch;
          Alcotest.test_case "heap push pop" `Quick test_alloc_heap;
          Alcotest.test_case "rng draw" `Quick test_alloc_rng;
          Alcotest.test_case "windowed event" `Quick test_alloc_windowed_event;
          Alcotest.test_case "windowed handoff" `Quick
            test_alloc_windowed_handoff;
        ] );
    ]
