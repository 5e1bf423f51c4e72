(* Declarative fault/load scenarios.

   Three layers under test. The scenario language itself: text
   round-trips, parse errors, and the validator's protocol-safety
   rules (armed-timeout exclusions, open-loop exclusions,
   crash/recover consistency). The corpus: every checked-in .scn file
   runs end to end under the strict engine's sanitizer and the
   serializability oracle, on multiple seeds, reproducing bit for bit
   on a same-seed rerun — gray-failure scenarios sweep all six stacks.
   And the fuzzer: seed-driven generation always yields valid
   scenarios, and [Fuzz.minimize] shrinks a failing scenario to a
   minimal reproducer file that reparses and still fails. *)

open Xenic_sim
open Xenic_cluster
open Xenic_proto
open Xenic_scenario

let scenario_path name = Filename.concat "scenarios" (name ^ ".scn")

let load name =
  match Scenario.load_file (scenario_path name) with
  | Ok scn -> scn
  | Error m -> Alcotest.failf "corpus %s: %s" name m

(* ------------------------------------------------------------------ *)
(* Text form *)

let sample =
  Scenario.make ~name:"sample" ~nodes:4 ~rto_ns:1_000.0
    ~phases:
      [ { Scenario.dur_ns = 1e6; rate_tps = 3e5; theta = 0.9; hot_frac = 0.25 } ]
    [
      { Scenario.at_ns = 5_000.0; action = Scenario.Loss { src = -1; dst = -1; p = 0.05 } };
      { Scenario.at_ns = 8_000.0; action = Scenario.Delay { src = 0; dst = -1; factor = 2.5 } };
      { Scenario.at_ns = 9_000.0; action = Scenario.Slow_nic { node = 2; factor = 3.0 } };
      { Scenario.at_ns = 12_000.0; action = Scenario.Degrade_cores { node = 1; n = 2; dur_ns = 30_000.0 } };
    ]

let test_round_trip () =
  let back =
    match Scenario.of_string (Scenario.to_string sample) with
    | Ok t -> t
    | Error m -> Alcotest.failf "sample did not reparse: %s" m
  in
  Alcotest.(check bool) "sample round-trips structurally" true (back = sample);
  (* A cut/heal pair exercises the remaining constructors. *)
  let cuts =
    Scenario.make ~name:"cuts" ~nodes:4
      [
        { Scenario.at_ns = 1_000.0;
          action = Scenario.Cut { froms = [ 0; 1 ]; tos = [ 2; 3 ] } };
        { Scenario.at_ns = 2_000.0; action = Scenario.Heal };
        { Scenario.at_ns = 3_000.0; action = Scenario.Crash 1 };
        { Scenario.at_ns = 4_000.0; action = Scenario.Recover 1 };
      ]
  in
  match Scenario.of_string (Scenario.to_string cuts) with
  | Ok t -> Alcotest.(check bool) "cuts round-trip" true (t = cuts)
  | Error m -> Alcotest.failf "cuts did not reparse: %s" m

let test_corpus_round_trip () =
  List.iter
    (fun name ->
      let scn = load name in
      match Scenario.of_string (Scenario.to_string scn) with
      | Ok back ->
          Alcotest.(check bool)
            (Printf.sprintf "%s round-trips" name)
            true (back = scn)
      | Error m -> Alcotest.failf "%s: reparse failed: %s" name m)
    [
      "crash-single"; "crash-flap"; "churn"; "crash-gray"; "partition-heal";
      "partition-asym"; "lossy-links"; "slow-nic"; "degraded-cores";
      "gray-mix"; "skew-shift"; "tenant-wave";
    ]

let test_parse_errors () =
  let bad text =
    match Scenario.of_string text with
    | Ok _ -> Alcotest.failf "parsed but should not: %s" text
    | Error _ -> ()
  in
  bad "(scenario (nodes 4))";
  (* missing name *)
  bad "(scenario (name x))";
  (* missing nodes *)
  bad "(scenario (name x) (nodes 4) (at 10 (explode 3)))";
  bad "(scenario (name x) (nodes 4) (at ten (crash 3)))";
  bad "(scenario (name x) (nodes 4)";
  (* unbalanced *)
  bad "(scenario (name x) (nodes 4) (at 10 (loss * 0.1)))"
(* arity *)

let test_wildcard_and_comments () =
  let text =
    "; a comment\n\
     (scenario (name w) (nodes 3) ; trailing comment\n\
    \  (at 1000 (loss * 2 0.1)))\n"
  in
  match Scenario.of_string text with
  | Error m -> Alcotest.failf "wildcard text: %s" m
  | Ok t -> (
      match (List.hd t.Scenario.events).Scenario.action with
      | Scenario.Loss { src = -1; dst = 2; p } ->
          Alcotest.(check (float 0.0)) "p" 0.1 p
      | _ -> Alcotest.fail "expected (loss * 2 0.1)")

let test_validate_rules () =
  let ev at_ns action = { Scenario.at_ns; action } in
  let rejected what scn =
    match Scenario.validate scn with
    | Ok () -> Alcotest.failf "%s: validated but should not" what
    | Error _ -> ()
  in
  let accepted what scn =
    match Scenario.validate scn with
    | Ok () -> ()
    | Error m -> Alcotest.failf "%s: rejected: %s" what m
  in
  let mk = Scenario.make ~nodes:4 in
  rejected "crash+cut"
    (mk ~name:"x"
       [
         ev 1.0 (Scenario.Crash 1);
         ev 2.0 (Scenario.Cut { froms = [ 0 ]; tos = [ 2 ] });
       ]);
  rejected "crash+slow-nic"
    (mk ~name:"x"
       [ ev 1.0 (Scenario.Crash 1); ev 2.0 (Scenario.Slow_nic { node = 2; factor = 2.0 }) ]);
  rejected "crash+degrade"
    (mk ~name:"x"
       [
         ev 1.0 (Scenario.Crash 1);
         ev 2.0 (Scenario.Degrade_cores { node = 2; n = 1; dur_ns = 1_000.0 });
       ]);
  rejected "open-loop crash"
    (mk ~name:"x"
       ~phases:
         [ { Scenario.dur_ns = 1e6; rate_tps = 1e5; theta = 0.5; hot_frac = 0.0 } ]
       [ ev 1.0 (Scenario.Crash 1) ]);
  rejected "loss p too high"
    (mk ~name:"x" [ ev 1.0 (Scenario.Loss { src = -1; dst = -1; p = 0.95 }) ]);
  rejected "delay factor too high"
    (mk ~name:"x" [ ev 1.0 (Scenario.Delay { src = -1; dst = -1; factor = 100.0 }) ]);
  rejected "armed delay factor above 2"
    (mk ~name:"x"
       [
         ev 1.0 (Scenario.Delay { src = -1; dst = -1; factor = 3.0 });
         ev 2.0 (Scenario.Crash 1);
       ]);
  rejected "armed loss with oversized rto"
    (Scenario.make ~name:"x" ~nodes:4 ~rto_ns:2_000.0
       [
         ev 1.0 (Scenario.Loss { src = -1; dst = -1; p = 0.05 });
         ev 2.0 (Scenario.Crash 1);
       ]);
  rejected "recover without crash" (mk ~name:"x" [ ev 1.0 (Scenario.Recover 1) ]);
  rejected "double crash"
    (mk ~name:"x" [ ev 1.0 (Scenario.Crash 1); ev 2.0 (Scenario.Crash 1) ]);
  rejected "all nodes down"
    (mk ~name:"x"
       (List.init 4 (fun n -> ev (float_of_int (n + 1)) (Scenario.Crash n))));
  rejected "node out of range" (mk ~name:"x" [ ev 1.0 (Scenario.Crash 7) ]);
  rejected "bad name" (mk ~name:"no spaces" [ ev 1.0 (Scenario.Crash 1) ]);
  rejected "negative event time" (mk ~name:"x" [ ev (-1.0) (Scenario.Crash 1) ]);
  accepted "armed loss within rto bound"
    (Scenario.make ~name:"x" ~nodes:4 ~rto_ns:1_000.0
       [
         ev 1.0 (Scenario.Loss { src = -1; dst = -1; p = 0.05 });
         ev 2.0 (Scenario.Crash 1);
       ]);
  accepted "flap" (mk ~name:"x" [ ev 1.0 (Scenario.Crash 1); ev 2.0 (Scenario.Recover 1) ])

(* ------------------------------------------------------------------ *)
(* Corpus runs: oracle + sanitizer + bit-reproducibility *)

let run_corpus ?concurrency ?target ~stacks ~seeds name =
  let scn = load name in
  Scenario.validate_exn scn;
  List.iter
    (fun stack ->
      let digests =
        List.map
          (fun seed ->
            let o = Harness.run ?concurrency ?target ~stack ~seed scn in
            Alcotest.(check bool)
              (Printf.sprintf "%s/%s seed %Ld: progress" name
                 (System.stack_name stack) seed)
              true (o.Harness.committed > 0);
            o.Harness.digest)
          seeds
      in
      let again =
        (Harness.run ?concurrency ?target ~stack ~seed:(List.hd seeds) scn)
          .Harness.digest
      in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s seed %Ld reproduces bit-identically" name
           (System.stack_name stack) (List.hd seeds))
        (List.hd digests) again)
    stacks

let test_crash_corpus () =
  run_corpus ~stacks:[ System.Xenic ] ~seeds:[ 1L; 2L ] "crash-single";
  run_corpus ~stacks:[ System.Fasst ] ~seeds:[ 1L ] ~target:400 "crash-single";
  run_corpus ~stacks:[ System.Xenic ] ~seeds:[ 1L; 2L ] "crash-gray"

let test_churn_corpus () =
  run_corpus ~stacks:[ System.Xenic ] ~seeds:[ 1L; 2L ] ~target:500 "churn"

let test_partition_corpus () =
  run_corpus ~stacks:[ System.Xenic ] ~seeds:[ 1L; 2L ] "partition-heal";
  run_corpus ~stacks:[ System.Xenic; System.Drtmh ] ~seeds:[ 1L ]
    "partition-asym"

let test_gray_sweep_all_stacks () =
  (* Satellite: lossy links and slow NICs on all six stacks, two seeds
     each, oracle + sanitizer + same-seed reproducibility (inside
     run_corpus). *)
  run_corpus ~stacks:System.stacks ~seeds:[ 3L; 4L ] ~target:200
    "lossy-links";
  run_corpus ~stacks:System.stacks ~seeds:[ 3L; 4L ] ~target:200
    "slow-nic"

let test_gray_mix_corpus () =
  run_corpus ~stacks:[ System.Xenic; System.Farm ] ~seeds:[ 1L; 2L ]
    ~target:250 "gray-mix";
  run_corpus ~stacks:[ System.Xenic ] ~seeds:[ 1L ] "degraded-cores"

let test_openloop_corpus () =
  run_corpus ~stacks:[ System.Xenic; System.Fasst ] ~seeds:[ 11L ]
    "skew-shift";
  run_corpus ~stacks:[ System.Xenic ] ~seeds:[ 11L; 12L ] "tenant-wave"

let test_domain_parity ~stack ~seed name () =
  (* An open-loop scenario digests identically on a 1-domain and a
     2-domain engine in the windowed 2-partition configuration. *)
  let scn = load name in
  let one = Harness.run ~domains:1 ~stack ~seed scn in
  let two = Harness.run ~domains:2 ~stack ~seed scn in
  Alcotest.(check bool) "open-loop run committed" true
    (one.Harness.committed > 0);
  Alcotest.(check string) "open-loop 1-vs-2-domain digest parity"
    one.Harness.digest two.Harness.digest

(* ------------------------------------------------------------------ *)
(* Membership flap semantics (the fail-stop guard) *)

let lease_ns = 25_000.0

let with_membership f =
  let engine = Engine.create ~strict:true () in
  let cfg = Config.make ~nodes:4 ~replication:3 in
  let m = Membership.create engine cfg ~lease_ns in
  Membership.start m;
  f engine m;
  ignore (Engine.run engine)

let test_membership_flap_within_lease () =
  let flap_ok = ref false and epoch_at_recover = ref (-1) in
  let final_alive = ref false and final_epoch = ref (-1) in
  with_membership (fun engine m ->
      Engine.at engine 10_000.0 (fun () -> Membership.fail_node m ~node:1);
      Engine.at engine 20_000.0 (fun () ->
          epoch_at_recover := Membership.epoch m;
          flap_ok := Membership.recover_node m ~node:1);
      (* Long after the original lease would have expired: renewals
         must have resumed. *)
      Engine.at engine 150_000.0 (fun () ->
          final_alive := Membership.is_alive m 1;
          final_epoch := Membership.epoch m;
          Membership.stop m));
  Alcotest.(check bool) "within-lease recovery accepted" true !flap_ok;
  Alcotest.(check bool) "node alive long after flap" true !final_alive;
  Alcotest.(check int) "no declaration, epoch unchanged" !epoch_at_recover
    !final_epoch

let test_membership_flap_after_declaration () =
  (* The regression this PR fixes: a node whose lease already expired
     must NOT be re-promoted under its stale epoch — recovery is
     refused and the node stays out permanently. *)
  let refused = ref true and alive_after = ref true in
  let epoch_before = ref (-1) and epoch_after = ref (-1) in
  with_membership (fun engine m ->
      Engine.at engine 10_000.0 (fun () ->
          epoch_before := Membership.epoch m;
          Membership.fail_node m ~node:1);
      (* 10us + lease 25us: declared by ~48us (checker period lease/2). *)
      Engine.at engine 60_000.0 (fun () ->
          refused := not (Membership.recover_node m ~node:1);
          epoch_after := Membership.epoch m);
      Engine.at engine 150_000.0 (fun () ->
          alive_after := Membership.is_alive m 1;
          Membership.stop m));
  Alcotest.(check bool) "post-declaration recovery refused" true !refused;
  Alcotest.(check bool) "declared node stays out" false !alive_after;
  Alcotest.(check bool) "declaration bumped the epoch" true
    (!epoch_after > !epoch_before)

let test_membership_recover_healthy_noop () =
  let ok = ref false in
  with_membership (fun engine m ->
      Engine.at engine 10_000.0 (fun () ->
          ok := Membership.recover_node m ~node:2);
      Engine.at engine 20_000.0 (fun () -> Membership.stop m));
  Alcotest.(check bool) "recover of a healthy node is a true no-op" true !ok

let test_system_flap_rejoin () =
  (* End to end on Xenic: the flapped node rejoins (epoch-fenced
     replica repair) and the run stays serializable — plus the
     bit-reproducibility run_corpus already adds. *)
  let scn = load "crash-flap" in
  let o = Harness.run ~stack:System.Xenic ~seed:1L ~target:400 scn in
  Alcotest.(check bool) "progress" true (o.Harness.committed > 0);
  Alcotest.(check bool) "crash recorded" true
    (Harness.counter o "node_crashes" >= 1.0);
  Alcotest.(check bool) "rejoin ran" true
    (Harness.counter o "node_rejoins" >= 1.0);
  run_corpus ~stacks:[ System.Xenic ] ~seeds:[ 1L; 2L ] ~target:400
    "crash-flap"

let test_system_flap_refused_on_rdma () =
  (* The RDMA baselines keep lock words in host memory; a flapped
     node's locks cannot be reconciled, so rejoin is always refused
     (counted) and declaration takes its course. *)
  let scn = load "crash-flap" in
  let o = Harness.run ~stack:System.Fasst ~seed:1L ~target:400 scn in
  Alcotest.(check bool) "progress" true (o.Harness.committed > 0);
  Alcotest.(check bool) "rejoin refused" true
    (Harness.counter o "rejoin_refused" >= 1.0);
  Alcotest.(check (float 0.0)) "no rejoin on rdma" 0.0
    (Harness.counter o "node_rejoins")

(* ------------------------------------------------------------------ *)
(* Fuzzer *)

let test_fuzz_generate_valid () =
  for seed = 1 to 25 do
    let scn = Fuzz.generate ~seed:(Int64.of_int seed) Fuzz.default_bounds in
    match Scenario.validate scn with
    | Ok () -> ()
    | Error m -> Alcotest.failf "fuzz seed %d: invalid: %s" seed m
  done

let test_fuzz_deterministic () =
  let a = Fuzz.generate ~seed:5L Fuzz.default_bounds in
  let b = Fuzz.generate ~seed:5L Fuzz.default_bounds in
  Alcotest.(check bool) "same seed, same scenario" true (a = b);
  Alcotest.(check string) "same text" (Scenario.to_string a)
    (Scenario.to_string b)

let test_fuzz_runs_clean () =
  (* Random scenarios drive real runs under oracle + sanitizer; the
     harness raises on any violation. *)
  let bounds = { Fuzz.default_bounds with max_events = 4 } in
  List.iter
    (fun seed ->
      let scn = Fuzz.generate ~seed bounds in
      let o = Harness.run ~stack:System.Xenic ~seed ~target:200 scn in
      Alcotest.(check bool)
        (Printf.sprintf "fuzz %Ld progressed" seed)
        true (o.Harness.committed > 0))
    [ 101L; 102L; 103L ]

let test_fuzz_shrink () =
  (* Seeded "violation": a synthetic failure predicate that needs both
     a loss event with p >= 0.1 and a slow NIC with factor >= 2. The
     minimizer must strip everything else and shrink times/factors,
     ending at exactly the two essential events; the reproducer file
     must reparse and still fail. *)
  let ev at_ns action = { Scenario.at_ns; action } in
  let big =
    Scenario.make ~name:"seeded" ~nodes:4
      [
        ev 5_000.0 (Scenario.Loss { src = -1; dst = -1; p = 0.2 });
        ev 8_000.0 (Scenario.Delay { src = 0; dst = -1; factor = 3.0 });
        ev 12_000.0 (Scenario.Slow_nic { node = 2; factor = 4.0 });
        ev 15_000.0 (Scenario.Degrade_cores { node = 3; n = 2; dur_ns = 30_000.0 });
        ev 20_000.0 (Scenario.Cut { froms = [ 0 ]; tos = [ 3 ] });
        ev 30_000.0 Scenario.Heal;
      ]
  in
  let fails scn =
    let has p = List.exists (fun e -> p e.Scenario.action) scn.Scenario.events in
    has (function
      | Scenario.Loss { p; _ } -> Float.compare p 0.1 >= 0
      | _ -> false)
    && has (function
         | Scenario.Slow_nic { factor; _ } -> Float.compare factor 2.0 >= 0
         | _ -> false)
  in
  Alcotest.(check bool) "seeded scenario fails" true (fails big);
  let small = Fuzz.minimize ~fails big in
  Alcotest.(check bool) "minimal scenario still fails" true (fails small);
  Alcotest.(check bool) "minimal scenario still valid" true
    (Result.is_ok (Scenario.validate small));
  Alcotest.(check int) "shrunk to the two essential events" 2
    (List.length small.Scenario.events);
  List.iter
    (fun e ->
      Alcotest.(check (float 0.0))
        "event times shrunk to zero" 0.0 e.Scenario.at_ns)
    small.Scenario.events;
  let dir = Filename.temp_file "scenario" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Fuzz.write_reproducer ~dir small in
  (match Scenario.load_file path with
  | Error m -> Alcotest.failf "reproducer does not reparse: %s" m
  | Ok back ->
      Alcotest.(check bool) "reproducer equals minimal scenario" true
        (back = small);
      Alcotest.(check bool) "reproducer still fails" true (fails back));
  Sys.remove path;
  Sys.rmdir dir

let () =
  Alcotest.run "xenic_scenario"
    [
      ( "format",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "corpus round trip" `Quick test_corpus_round_trip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "wildcards and comments" `Quick
            test_wildcard_and_comments;
          Alcotest.test_case "validator rules" `Quick test_validate_rules;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "crash scenarios" `Quick test_crash_corpus;
          Alcotest.test_case "churn" `Quick test_churn_corpus;
          Alcotest.test_case "partitions" `Quick test_partition_corpus;
          Alcotest.test_case "gray sweep, all six stacks" `Quick
            test_gray_sweep_all_stacks;
          Alcotest.test_case "gray mix + degraded cores" `Quick
            test_gray_mix_corpus;
          Alcotest.test_case "open-loop scenarios" `Quick test_openloop_corpus;
          Alcotest.test_case "1-vs-2-domain digest parity" `Quick
            (test_domain_parity ~stack:System.Xenic ~seed:11L "skew-shift");
          Alcotest.test_case "1-vs-2-domain digest parity, farm tenant-wave"
            `Quick
            (test_domain_parity ~stack:System.Farm ~seed:12L "tenant-wave");
        ] );
      ( "flap",
        [
          Alcotest.test_case "membership: within-lease flap" `Quick
            test_membership_flap_within_lease;
          Alcotest.test_case "membership: post-declaration refusal" `Quick
            test_membership_flap_after_declaration;
          Alcotest.test_case "membership: healthy no-op" `Quick
            test_membership_recover_healthy_noop;
          Alcotest.test_case "system: xenic flap rejoin" `Quick
            test_system_flap_rejoin;
          Alcotest.test_case "system: rdma flap refused" `Quick
            test_system_flap_refused_on_rdma;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "generated scenarios valid (25 seeds)" `Quick
            test_fuzz_generate_valid;
          Alcotest.test_case "generation deterministic" `Quick
            test_fuzz_deterministic;
          Alcotest.test_case "random scenarios run clean" `Quick
            test_fuzz_runs_clean;
          Alcotest.test_case "shrink to minimal reproducer" `Quick
            test_fuzz_shrink;
        ] );
    ]
