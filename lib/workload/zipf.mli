(** Zipf-distributed key sampling (Gray et al.'s method), used by the
    Retwis benchmark (α = 0.5). *)

type t

(** [create ~n ~theta] prepares a sampler over [0, n). [theta] in
    (0, 1); [theta = 0] degenerates to uniform. *)
val create : n:int -> theta:float -> t

(** Memoized zeta-sum frontiers, for callers that create many samplers
    over the same key population (e.g. time-varying skew re-creating
    the distribution each phase). Each cache is owned by its caller —
    there is no module-level state — and must not be shared across
    concurrently running domains. *)
type cache

val cache : unit -> cache

(** [copy_cache c] is a cache of its own holding [c]'s memoized sums:
    a caller that owns [c] may seed others from it. *)
val copy_cache : cache -> cache

(** [create_cached c ~n ~theta] is observationally {e bit-identical} to
    [create ~n ~theta] (same fields, same sampling), but reuses and
    incrementally extends the zeta partial sums memoized in [c]: the
    float additions performed are exactly the naive loop's, in the same
    order, so extension costs O(n - n{_prev}) instead of O(n). *)
val create_cached : cache -> n:int -> theta:float -> t

val sample : t -> Xenic_sim.Rng.t -> int
