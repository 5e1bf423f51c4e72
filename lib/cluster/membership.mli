(** Lease-based cluster membership (§4.2.1).

    A stand-in for the paper's ZooKeeper cluster manager: every node
    holds a lease and renews it periodically; the manager declares a
    node dead when its lease expires, bumps the configuration epoch,
    and notifies reconfiguration subscribers (who run recovery:
    promoting backups, rebuilding lock state). *)

type t

val create : Xenic_sim.Engine.t -> Config.t -> lease_ns:float -> t

(** Spawn the manager's expiry checker and each node's renewal loop. *)
val start : t -> unit

(** Shut the loops down: renewal and expiry processes exit at their
    next wakeup (within [lease_ns / 2]), letting the engine drain its
    event queue. Without this a started membership keeps the simulation
    alive forever. Idempotent. *)
val stop : t -> unit

(** Current configuration epoch (bumped on every membership change). *)
val epoch : t -> int

val is_alive : t -> int -> bool

(** Stop a node's renewals; its lease will expire and trigger
    reconfiguration (fault injection). *)
val fail_node : t -> node:int -> unit

(** [recover_node t ~node] readmits a node that crashed and returned
    {e within} its lease window: the lease is refreshed synchronously
    and renewals resume; returns [true]. If the lease already expired —
    the node was declared dead and the epoch moved past it — the
    request is refused ([false]) and the node stays out permanently:
    readmitting it under its old identity would let a flapping node be
    re-promoted with a stale epoch. Must be called after {!start};
    idempotent for a node that never failed. *)
val recover_node : t -> node:int -> bool

(** Subscribe to reconfiguration events: called with the new epoch and
    the nodes newly declared dead. *)
val on_reconfigure : t -> (epoch:int -> dead:int list -> unit) -> unit
