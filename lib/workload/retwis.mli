(** Retwis benchmark (§5.4): a Twitter-clone mix over 64-byte objects
    accessed with a Zipf(0.5) distribution. 50% read-only transactions;
    1-10 keys per transaction; minimal coordinator-side computation, so
    all execution ships to the NIC. Mix follows the research variant
    used by TAPIR/Meerkat: AddUser 5%, Follow 15%, PostTweet 30%,
    GetTimeline 50%. *)

type params = {
  keys_per_node : int;
  zipf_theta : float;  (** 0.5 in the paper. *)
  value_b : int;  (** 64 in the paper. *)
}

val default_params : params

val store_cfg : params -> int * int * int option

val chained_buckets : params -> int

val load : params -> Xenic_proto.System.t -> unit

val spec : params -> nodes:int -> Driver.spec

(** Theta-parameterized open-loop workload: the closed-loop {!spec} mix
    sampled at each phase's skew, plus a celebrity flash-crowd class
    for hot arrivals (timeline reads and interaction RMWs against the
    accounts at the top 16 Zipf ranks). *)
val openloop_spec : params -> Openloop.workload

(** Read-modify-write counter spec over the same keyspace for
    correctness tests: each committed transaction increments one
    object's embedded counter exactly once. *)
val increment_spec : params -> nodes:int -> Driver.spec

(** Sum of embedded counters over all primaries (for the increment
    spec's invariant). Only test_e2e's increment audit sums the counters. *)
val total_count : params -> Xenic_proto.System.t -> int64
