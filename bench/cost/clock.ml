(* Host time for the cost benchmark: CLOCK_MONOTONIC nanoseconds,
   allocation-free, so reading it cannot itself trigger a collection
   inside a timed span. *)

(* xenic-lint: allow WALL-CLOCK timer:bench-cost *)
external now_ns : unit -> (int[@untagged])
  = "bench_cost_now_ns_byte" "bench_cost_now_ns"
[@@noalloc]

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

