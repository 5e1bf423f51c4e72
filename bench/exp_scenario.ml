(* Scenario corpus as a gated artifact: drive a fixed subset of the
   checked-in scenario files (crash, flap, partition, gray failure,
   open-loop skew/wave) through the scenario harness — strict engine,
   serializability oracle — at a fixed seed, and emit the outcome
   scalars to BENCH_scenario.json. Every run is deterministic: a
   same-seed rerun must digest bit-identically (a divergence aborts
   the experiment before any JSON is written), and run_bench.sh gates
   the JSON byte-for-byte against bench/ref in full mode. *)

open Common
module Scenario = Xenic_scenario.Scenario
module Harness = Xenic_scenario.Harness
module System = Xenic_proto.System

let seed = 41L

(* (corpus file, stacks, closed-loop target; ignored for open-loop) *)
let corpus =
  [
    ("crash-single", [ System.Xenic; System.Fasst ], 600);
    ("crash-flap", [ System.Xenic ], 600);
    ("churn", [ System.Xenic ], 800);
    ("partition-heal", [ System.Xenic ], 400);
    ("lossy-links", [ System.Xenic; System.Drtmh; System.Farm ], 400);
    ("slow-nic", [ System.Xenic; System.Drtmr ], 400);
    ("gray-mix", [ System.Xenic ], 400);
    ("skew-shift", [ System.Xenic ], 0);
    ("tenant-wave", [ System.Xenic ], 0);
  ]

let run () =
  section "Scenario corpus: crash / partition / gray-failure / open-loop";
  Printf.printf "    %-16s %-8s %9s %9s %9s\n" "scenario" "stack" "committed"
    "aborted" "oracle";
  List.iter
    (fun (name, stacks, target) ->
      let scn = load_scenario (name ^ ".scn") in
      let target = scale target in
      List.iter
        (fun stack ->
          let o = Harness.run ~target ~stack ~seed scn in
          let again = Harness.run ~target ~stack ~seed scn in
          if not (String.equal o.Harness.digest again.Harness.digest) then
            failwith
              (Printf.sprintf
                 "scenario %s/%s: same-seed rerun diverged" name
                 (System.stack_name stack));
          Printf.printf "    %-16s %-8s %9d %9d %9d\n" name
            (System.stack_name stack) o.Harness.committed o.Harness.aborted
            o.Harness.oracle_txns;
          let k suffix =
            Printf.sprintf "%s / %s %s" name (System.stack_name stack) suffix
          in
          json_int (k "committed") o.Harness.committed;
          json_int (k "aborted") o.Harness.aborted;
          json_int (k "oracle_txns") o.Harness.oracle_txns;
          List.iter
            (fun c ->
              let v = Harness.counter o c in
              if Float.compare v 0.0 > 0 then json_num (k c) v)
            [
              "node_crashes"; "node_rejoins"; "rejoin_refused";
              "recovery_promotions"; "recovery_lock_sweeps"; "req_timeouts";
            ])
        stacks)
    corpus;
  note
    "all scenario runs serializable and bit-reproducible at seed %Ld \
     (oracle + strict-engine sanitizer inside the harness)"
    seed
