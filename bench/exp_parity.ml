(* Domain-parity gate: windowed conservative-PDES execution must be
   bit-identical on a 1-domain and a 2-domain engine, on every protocol
   stack.

   The corpus's open-loop tenant-wave scenario (Retwis, a flash crowd
   at twice the base rate aimed at the hot set) runs per stack through
   the oracle-checked harness on a [partitions = 2] system, once on a
   1-domain and once on a 2-domain engine, and the harness's lossless
   digests (%h floats, every metrics counter) are compared. Any byte of
   divergence fails the experiment with a nonzero exit — run_bench.sh
   runs this before spending cycles on any other experiment.
   Closed-loop systems run on one partition whatever the domain
   budget, so there is nothing to compare there. *)

open Xenic_proto
open Xenic_scenario

let seed = 13L

let scenario () =
  let scn = Common.load_scenario "tenant-wave.scn" in
  if !Common.quick then Scenario.scale_times scn (1.0 /. 3.0) else scn

let run () =
  Common.section "Domain parity: 1-domain vs 2-domain windowed digests";
  let scn = scenario () in
  let mismatched = ref 0 in
  List.iter
    (fun stack ->
      let name = System.stack_name stack in
      let one = Harness.run ~domains:1 ~stack ~seed scn in
      let two = Harness.run ~domains:2 ~stack ~seed scn in
      if one.Harness.committed = 0 then
        failwith (Printf.sprintf "parity: %s committed nothing" name);
      if String.equal one.Harness.digest two.Harness.digest then
        Common.note "%-10s bit-identical (%d commits)" name
          one.Harness.committed
      else begin
        incr mismatched;
        Printf.printf "  %-10s DIVERGED:\n--- 1 domain ---\n%s\n--- 2 domains \
                       ---\n%s\n"
          name one.Harness.digest two.Harness.digest
      end)
    System.stacks;
  Common.json_int "parity stacks" (List.length System.stacks);
  Common.json_int "parity mismatches" !mismatched;
  if !mismatched > 0 then
    failwith
      (Printf.sprintf "parity: %d stack(s) diverged between 1 and 2 domains"
         !mismatched)
