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
     on a partition-clean model. *)

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

let () =
  Alcotest.run "xenic_domains"
    [
      ( "ambient state",
        [
          Alcotest.test_case "two engines do not bleed" `Quick
            test_attrib_no_bleed;
          Alcotest.test_case "no residue after run" `Quick
            test_attrib_no_residue;
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
        ] );
    ]
