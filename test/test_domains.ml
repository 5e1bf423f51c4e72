(* Regression tests for the partitioned multi-domain engine.

   Three guarantees that used to be impossible to state (the ambient
   attribution context and its enable flag were process-global mutable
   cells):

   - two engines interleaved in one OS process never observe each
     other's attribution state — contexts and enable flags are
     engine-owned now;
   - partition rng streams are derived ([Rng.derive]), not split off a
     shared parent, so a 2-domain run can never interleave-consume a
     1-domain stream;
   - windowed conservative mode is bit-identical across domain counts
     on a partition-clean model.

   It also pins the one-partition contract: a default engine runs one
   unbounded window on the calling domain, and a closed-loop system on
   a multi-domain engine keeps that one partition. *)

open Xenic_sim

let ctx stack = { Attrib.default with Attrib.stack }

(* ------------------------------------------------------------------ *)
(* Two-engine attribution interleaving *)

(* Engine A enables accounting and sets a context; engine B's events —
   run in between A's — must see their own (disabled, default) state,
   and each engine's context must survive the other's run. With the
   old process-global [Attrib.current]/[enabled_flag] every one of
   these checks fails. *)
let test_attrib_no_bleed () =
  let a = Engine.create () and b = Engine.create () in
  Engine.set_attrib_enabled a true;
  let saw = ref [] in
  let see tag v = saw := (tag, v) :: !saw in
  Engine.at a 10.0 (fun () ->
      see "a10.enabled" (string_of_bool (Attrib.enabled ()));
      Attrib.set (ctx "engine-a"));
  Engine.at b 20.0 (fun () ->
      see "b20.enabled" (string_of_bool (Attrib.enabled ()));
      see "b20.stack" (Attrib.get ()).Attrib.stack;
      Attrib.set (ctx "engine-b"));
  Engine.at a 30.0 (fun () -> see "a30.stack" (Attrib.get ()).Attrib.stack);
  Engine.at b 40.0 (fun () -> see "b40.stack" (Attrib.get ()).Attrib.stack);
  ignore (Engine.run ~until:15.0 a);
  ignore (Engine.run ~until:25.0 b);
  ignore (Engine.run a);
  ignore (Engine.run b);
  let got tag = List.assoc tag !saw in
  Alcotest.(check string) "A runs with accounting enabled" "true"
    (got "a10.enabled");
  Alcotest.(check string) "B does not inherit A's enable flag" "false"
    (got "b20.enabled");
  Alcotest.(check string) "B starts from the default context"
    Attrib.default.Attrib.stack (got "b20.stack");
  Alcotest.(check string) "A's context survives B's run" "engine-a"
    (got "a30.stack");
  Alcotest.(check string) "B's context survives A's run" "engine-b"
    (got "b40.stack")

(* Outside any engine run the ambient slot is a plain fresh state, so
   an engine run must leave no residue behind it. *)
let test_attrib_no_residue () =
  let eng = Engine.create () in
  Engine.set_attrib_enabled eng true;
  Engine.at eng 5.0 (fun () -> Attrib.set (ctx "inside"));
  ignore (Engine.run eng);
  Alcotest.(check string) "run leaves ambient context untouched"
    Attrib.default.Attrib.stack
    (Attrib.get ()).Attrib.stack;
  Alcotest.(check bool) "run leaves ambient enable flag untouched" false
    (Attrib.enabled ())

(* ------------------------------------------------------------------ *)
(* Partition rng streams *)

let drain rng n = List.init n (fun _ -> Rng.int rng 1_000_000)

(* Derived partition streams are a pure function of (parent position,
   index): consuming one stream never perturbs another, so the draws a
   partition sees cannot depend on how many domains consume in
   parallel — i.e. a 2-domain run can never interleave-consume what a
   1-domain run would see as one stream. *)
let test_rng_derived_streams () =
  let seed = 99L in
  (* Sequential consumption: drain partition 0's stream fully, then
     partition 1's. *)
  let root = Rng.create ~seed in
  let seq0 = drain (Rng.derive root ~index:0) 32 in
  let seq1 = drain (Rng.derive root ~index:1) 32 in
  (* Interleaved consumption, one draw at a time — as two domains
     racing ahead of each other would. *)
  let root' = Rng.create ~seed in
  let r0 = Rng.derive root' ~index:0 and r1 = Rng.derive root' ~index:1 in
  let il0 = ref [] and il1 = ref [] in
  for _ = 1 to 32 do
    il0 := Rng.int r0 1_000_000 :: !il0;
    il1 := Rng.int r1 1_000_000 :: !il1
  done;
  Alcotest.(check (list int)) "stream 0 independent of stream 1's draws"
    seq0 (List.rev !il0);
  Alcotest.(check (list int)) "stream 1 independent of stream 0's draws"
    seq1 (List.rev !il1);
  Alcotest.(check bool) "streams are distinct" false (seq0 = seq1);
  (* derive never advances the parent: the parent's own next draw is
     the same whether or not streams were derived from it. *)
  let p1 = Rng.create ~seed and p2 = Rng.create ~seed in
  ignore (Rng.derive p1 ~index:7);
  ignore (Rng.derive p1 ~index:8);
  Alcotest.(check bool) "derive does not advance the parent" true
    (Rng.next p1 = Rng.next p2);
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Rng.derive: index must be non-negative") (fun () ->
      ignore (Rng.derive (Rng.create ~seed) ~index:(-1)))

(* ------------------------------------------------------------------ *)
(* Windowed mode: 1-domain vs 2-domain bit-identity *)

(* A handcrafted partition-clean model: 4 nodes on 2 partitions, each
   node with private state and a derived rng stream, local work every
   few ns, and cross-node messages scheduled exactly [lookahead] ahead
   (the fabric wire-latency pattern). Nothing mutable is shared across
   partitions, so windowed runs must be bit-identical for any domain
   count. *)
type node_state = {
  mutable steps : int;
  mutable hash : int;
  mutable inbox : int;
}

let mix h v = ((h * 31) + v) land 0x3FFFFFFF

let run_windowed_model ~domains =
  let lookahead = 50.0 in
  let nodes = 4 in
  let eng = Engine.create ~domains () in
  Engine.set_topology ~lookahead eng ~partitions:2
    ~node_partition:(fun n -> n mod 2);
  let root = Rng.create ~seed:2026L in
  let st =
    Array.init nodes (fun _ -> { steps = 0; hash = 0; inbox = 0 })
  in
  let rngs = Array.init nodes (fun n -> Rng.derive root ~index:n) in
  let horizon_t = 2_000.0 in
  let rec step node () =
    let s = st.(node) in
    s.steps <- s.steps + 1;
    let draw = Rng.int rngs.(node) 1000 in
    s.hash <- mix s.hash (draw + s.inbox);
    s.inbox <- 0;
    (* Every third step, message a neighbour one wire latency out —
       the only cross-partition edge in the model. *)
    if s.steps mod 3 = 0 then begin
      let dst = (node + 1 + Rng.int rngs.(node) (nodes - 1)) mod nodes in
      let v = draw land 0xFF in
      Engine.at ~node:dst eng
        (Engine.now eng +. lookahead)
        (fun () -> st.(dst).inbox <- st.(dst).inbox + v)
    end;
    if Float.compare (Engine.now eng) horizon_t < 0 then
      Engine.after ~node eng (7.0 +. float_of_int node) (step node)
  in
  for n = 0 to nodes - 1 do
    Engine.at ~node:n eng 1.0 (step n)
  done;
  let events = Engine.run eng in
  let digest =
    Array.to_list st
    |> List.mapi (fun n s ->
           Printf.sprintf "node%d steps=%d hash=%d inbox=%d" n s.steps s.hash
             s.inbox)
    |> String.concat "; "
  in
  (events, Printf.sprintf "events=%d now=%h" events (Engine.now eng), digest)

let test_windowed_domain_parity () =
  let e1, t1, d1 = run_windowed_model ~domains:1 in
  let _e2, t2, d2 = run_windowed_model ~domains:2 in
  Alcotest.(check bool) "model did real work" true (e1 > 500);
  Alcotest.(check string) "event count and final time identical" t1 t2;
  Alcotest.(check string) "per-node digests identical" d1 d2

(* Cross-partition schedules inside a window below the horizon must be
   rejected deterministically, not silently reordered. *)
let test_windowed_horizon_enforced () =
  let eng = Engine.create ~domains:1 () in
  Engine.set_topology ~lookahead:100.0 eng ~partitions:2
    ~node_partition:(fun n -> n);
  let raised = ref false in
  Engine.at ~node:0 eng 10.0 (fun () ->
      match Engine.at ~node:1 eng 20.0 ignore with
      | () -> ()
      | exception Invalid_argument _ -> raised := true);
  ignore (Engine.run eng);
  Alcotest.(check bool) "sub-lookahead cross-partition schedule raises" true
    !raised

(* [Engine.run ~until] stops a window's drain at [until] when it falls
   short of the horizon, inclusively, and resumes from there. *)
let test_windowed_until () =
  let eng = Engine.create ~domains:1 () in
  Engine.set_topology ~lookahead:100.0 eng ~partitions:2
    ~node_partition:(fun n -> n);
  let logs = [| ref []; ref [] |] in
  List.iter
    (fun (node, time) ->
      Engine.at ~node eng time (fun () ->
          logs.(node) := (time, Engine.now eng) :: !(logs.(node))))
    [ (0, 10.0); (1, 50.0); (1, 60.0); (0, 120.0); (1, 130.0) ];
  Alcotest.(check int) "events up to t=50" 2 (Engine.run ~until:50.0 eng);
  Alcotest.(check (float 0.0)) "clock at until" 50.0 (Engine.now eng);
  Alcotest.(check int) "events up to t=125" 2 (Engine.run ~until:125.0 eng);
  Alcotest.(check int) "the rest" 1 (Engine.run eng);
  let ran node = List.rev !(logs.(node)) in
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "partition 0 on time" [ (10.0, 10.0); (120.0, 120.0) ] (ran 0);
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "partition 1 on time"
    [ (50.0, 50.0); (60.0, 60.0); (130.0, 130.0) ]
    (ran 1)

(* An exception escaping a windowed event leaves through [Engine.run]
   with the backtrace of its raise, and the drain that ran it restores
   the domain's state on the way out: the ambient Attrib state and the
   "no partition" slot. A schedule made after the failed run is then
   setup code. On a stale slot naming partition 1 it would be a
   sub-lookahead cross-partition schedule, and raise. *)
exception Boom

let boom () = raise Boom

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_windowed_exception_restores domains () =
  Printexc.record_backtrace true;
  let eng = Engine.create ~domains () in
  Engine.set_topology ~lookahead:100.0 eng ~partitions:2
    ~node_partition:(fun n -> n);
  Engine.set_attrib_enabled eng true;
  Engine.at ~node:1 eng 10.0 (fun () ->
      Attrib.set (ctx "partition-1");
      boom ());
  (match Engine.run eng with
  | _ -> Alcotest.fail "the event's exception was swallowed"
  | exception Boom ->
      let bt = Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ()) in
      let first = List.hd (String.split_on_char '\n' bt) in
      Alcotest.(check bool)
        "backtrace starts at the raise in the event" true
        (contains first "test/test_domains.ml"));
  Alcotest.(check int) "no partition after the run" 0
    (Engine.current_partition eng);
  Alcotest.(check string) "ambient context restored"
    Attrib.default.Attrib.stack
    (Attrib.get ()).Attrib.stack;
  Alcotest.(check bool) "ambient enable flag restored" false
    (Attrib.enabled ());
  let ran = ref false in
  Engine.at ~node:0 eng (Engine.now eng) (fun () -> ran := true);
  ignore (Engine.run eng);
  Alcotest.(check bool) "a schedule after the failed run is setup code" true
    !ran

(* The ambient switch. A 2-domain windowed run reads the ambient from
   DLS cells while its worker runs, and hands the main domain's values
   back when it joins it: the frame installed around the run is still
   installed, with its context, and the switch is off again.
   Afterwards a default engine on the main domain must see only
   its own state: the default context, accounting off (the windowed
   engine had it on) and its own clock, whether the windowed run
   returned or raised. *)
let windowed_then_default ~fail =
  let eng = Engine.create ~domains:2 () in
  Engine.set_topology ~lookahead:100.0 eng ~partitions:2
    ~node_partition:(fun n -> n);
  Engine.set_attrib_enabled eng true;
  for node = 0 to 1 do
    Engine.at ~node eng 10.0 (fun () ->
        Attrib.set (ctx (Printf.sprintf "partition-%d" node));
        if fail && node = 1 then boom ())
  done;
  let run = if fail then "after a raising run" else "after a run" in
  (* The frame installed around the run is another engine's, so the
     main domain's value is not the frame its DLS cell held before. *)
  Engine.with_attrib (Engine.create ()) (fun () ->
      Attrib.set (ctx "main-outside");
      (match Engine.run eng with
      | _ -> if fail then Alcotest.fail "the event's exception was swallowed"
      | exception Boom -> if not fail then Alcotest.fail "unexpected Boom");
      Alcotest.(check bool) (run ^ ": switch off") false Ambient.switch.shared;
      Alcotest.(check string) (run ^ ": main domain's frame handed back")
        "main-outside" (Attrib.get ()).Attrib.stack);
  let default = Engine.create () in
  let seen = ref ("", true, nan) in
  Engine.at default 7.0 (fun () ->
      seen :=
        ((Attrib.get ()).Attrib.stack, Attrib.enabled (), Engine.now default));
  ignore (Engine.run default);
  let stack, enabled, now = !seen in
  Alcotest.(check string) (run ^ ": default context")
    Attrib.default.Attrib.stack stack;
  Alcotest.(check bool) (run ^ ": accounting off") false enabled;
  Alcotest.(check (float 0.0)) (run ^ ": its own clock") 7.0 now;
  Alcotest.(check string) (run ^ ": no residue outside any run")
    Attrib.default.Attrib.stack (Attrib.get ()).Attrib.stack

let test_switch_restores_main () =
  windowed_then_default ~fail:false;
  windowed_then_default ~fail:true

(* In a 2-domain run the coordinator's slot drains partition 0 on the
   main domain and a worker's slot drains partition 1 on its own. Each
   event sees its own partition's clock and the context its
   partition's earlier event left in the installed frame, on either
   side of the switch. Each partition writes only its own log. *)
let test_switch_per_slot () =
  let eng = Engine.create ~domains:2 () in
  Engine.set_topology ~lookahead:100.0 eng ~partitions:2
    ~node_partition:(fun n -> n);
  Engine.set_attrib_enabled eng true;
  let logs = [| ref []; ref [] |] in
  let times = [| [ 10.0; 30.0; 250.0 ]; [ 20.0; 40.0; 260.0 ] |] in
  for node = 0 to 1 do
    List.iter
      (fun time ->
        Engine.at ~node eng time (fun () ->
            let prev = (Attrib.get ()).Attrib.stack in
            Attrib.set (ctx (Printf.sprintf "p%d@%.0f" node time));
            logs.(node) :=
              ( Domain.is_main_domain (),
                Engine.current_partition eng,
                Engine.now eng,
                prev,
                Attrib.enabled () )
              :: !(logs.(node))))
      times.(node)
  done;
  ignore (Engine.run eng);
  let expect node ~main =
    let rec go prev = function
      | [] -> []
      | t :: rest ->
          (main, node, t, prev, true)
          :: go (Printf.sprintf "p%d@%.0f" node t) rest
    in
    go Attrib.default.Attrib.stack times.(node)
  in
  let show (main, p, now, prev, on) =
    Printf.sprintf "main=%b part=%d now=%.0f prev=%s on=%b" main p now prev on
  in
  let check node ~main what =
    Alcotest.(check (list string)) what
      (List.map show (expect node ~main))
      (List.map show (List.rev !(logs.(node))))
  in
  check 0 ~main:true "partition 0 on the coordinator's slot";
  check 1 ~main:false "partition 1 on the worker's slot"

(* A partition's outbox holds 8192 handoffs per destination in one
   window; one more raises the deterministic overflow error. *)
let test_windowed_outbox_overflow () =
  let sends ~partitions per_dst =
    let eng = Engine.create ~domains:1 () in
    Engine.set_topology ~lookahead:100.0 eng ~partitions
      ~node_partition:(fun n -> n);
    Engine.at ~node:0 eng 10.0 (fun () ->
        for dst = 1 to partitions - 1 do
          for _ = 1 to per_dst do
            Engine.at ~node:dst eng 200.0 ignore
          done
        done);
    Engine.run eng
  in
  Alcotest.(check int) "8192 to each of two destinations fit" (1 + (2 * 8192))
    (sends ~partitions:3 8192);
  Alcotest.check_raises "the 8193rd handoff overflows"
    (Invalid_argument
       "Engine: cross-partition outbox of partition 0 full: more than 8192 \
        events left it in one window") (fun () ->
      ignore (sends ~partitions:2 8193))

(* A default engine has one partition: a run is one window whose seq
   block is unbounded, so a timer chain longer than a partition's
   2^20-event window block runs in one [Engine.run] on the calling
   domain, even with a 2-domain budget. The global counter resumes
   where the block ended: an event setup code schedules after the run
   sorts after one the run scheduled for the same instant. *)
let test_one_partition_one_window () =
  let eng = Engine.create ~domains:2 () in
  Alcotest.(check int) "one partition" 1 (Engine.partitions eng);
  let chain = (1 lsl 20) + 16 in
  let left = ref chain in
  let rec tick () =
    decr left;
    if !left > 0 then Engine.after eng 1.0 tick
  in
  Engine.at eng 0.0 tick;
  let order = ref [] and shared = ref true in
  Engine.at eng 0.5 (fun () ->
      shared := Ambient.switch.shared || not (Domain.is_main_domain ());
      Engine.at eng 1e9 (fun () -> order := "run" :: !order));
  Alcotest.(check int) "the chain and its scheduler" (chain + 1)
    (Engine.run ~until:1e8 eng);
  Alcotest.(check bool) "no worker domain" false !shared;
  Engine.at eng 1e9 (fun () -> order := "setup" :: !order);
  Alcotest.(check int) "the two instants" 2 (Engine.run eng);
  Alcotest.(check (list string)) "run's schedule first" [ "run"; "setup" ]
    (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Closed-loop systems stay on one partition *)

(* The closed-loop driver's shared [committed] counter couples every
   node at zero lookahead, so a closed-loop system keeps the engine's
   one partition, whatever its domain budget, and its runs start no
   worker domain. Its metrics come from one shard, and [metrics ()] is
   a snapshot: two calls agree. *)
let closed_loop_sb =
  { Xenic_workload.Smallbank.default_params with accounts_per_node = 200 }

let test_closed_loop_one_partition stack () =
  let open Xenic_proto in
  let open Xenic_workload in
  let sys =
    System.create ~domains:2 ~nodes:4 ~replication:3
      ~xenic:{ Xenic_system.default_params with cache_capacity = 256 }
      ~store_cfg:(Smallbank.store_cfg closed_loop_sb)
      ~buckets:(Smallbank.chained_buckets closed_loop_sb) stack
  in
  let eng = sys.System.engine in
  let name = sys.System.name in
  Alcotest.(check int) (name ^ ": 2-domain budget") 2 (Engine.domains eng);
  Alcotest.(check int) (name ^ ": one partition") 1 (Engine.partitions eng);
  let worker = ref false in
  Engine.at eng 1_000.0 (fun () ->
      worker := Ambient.switch.shared || not (Domain.is_main_domain ()));
  Smallbank.load closed_loop_sb sys;
  let r =
    Driver.run sys
      (Smallbank.spec closed_loop_sb ~nodes:4)
      ~seed:3L ~concurrency:4 ~target:200
  in
  Alcotest.(check bool) (name ^ ": progress") true (r.Driver.committed > 0);
  Alcotest.(check bool) (name ^ ": no worker domain") false !worker;
  let snapshot () =
    let m = sys.System.metrics () in
    ( Metrics.committed m,
      Metrics.aborted m,
      Xenic_stats.Counter.to_list (Metrics.counters m) )
  in
  let c1, a1, k1 = snapshot () in
  let c2, a2, k2 = snapshot () in
  Alcotest.(check int) (name ^ ": committed stable") c1 c2;
  Alcotest.(check int) (name ^ ": aborted stable") a1 a2;
  Alcotest.(check bool) (name ^ ": counters stable") true (k1 = k2);
  Alcotest.(check bool) (name ^ ": counters recorded") true (k1 <> [])

let () =
  Alcotest.run "xenic_domains"
    [
      ( "ambient state",
        [
          Alcotest.test_case "two engines do not bleed" `Quick
            test_attrib_no_bleed;
          Alcotest.test_case "no residue after run" `Quick
            test_attrib_no_residue;
          Alcotest.test_case "main domain's values restored" `Quick
            test_switch_restores_main;
          Alcotest.test_case "coordinator and worker slots" `Quick
            test_switch_per_slot;
        ] );
      ( "rng streams",
        [
          Alcotest.test_case "derived partition streams" `Quick
            test_rng_derived_streams;
        ] );
      ( "windowed mode",
        [
          Alcotest.test_case "1-domain vs 2-domain parity" `Quick
            test_windowed_domain_parity;
          Alcotest.test_case "horizon enforced" `Quick
            test_windowed_horizon_enforced;
          Alcotest.test_case "run until" `Quick test_windowed_until;
          Alcotest.test_case "exception restores state (1 domain)" `Quick
            (test_windowed_exception_restores 1);
          Alcotest.test_case "exception restores state (2 domains)" `Quick
            (test_windowed_exception_restores 2);
          Alcotest.test_case "outbox overflow raises" `Quick
            test_windowed_outbox_overflow;
          Alcotest.test_case "one partition, one window" `Quick
            test_one_partition_one_window;
        ] );
      ( "closed loop",
        List.map
          (fun stack ->
            Alcotest.test_case
              (Xenic_proto.System.stack_name stack
              ^ " single-heap on a 2-domain engine")
              `Quick
              (test_closed_loop_one_partition stack))
          Xenic_proto.System.[ Xenic; Drtmh ] );
    ]
