(** RDMA NIC model (Mellanox CX5): one-sided READ / WRITE / ATOMIC
    verbs handled entirely by NIC hardware, and two-sided SEND/RECV for
    RPC messaging.

    A one-sided verb never consumes target CPU: the target NIC parses
    the request, performs a PCIe access against host memory, and
    responds. The simulation runs the caller-provided [at_target]
    closure at the instant the target NIC performs the memory access —
    the verb's linearization point — so reads, writes and
    compare-and-swap take effect against the real data structures with
    correct timing.

    [at_target] runs inside the verb's engine event, not in a process.
    It may still block (a host-log append waiting for space): it is
    then run again from the start in a process of its own, and the
    verb answers when it returns. So an [at_target] that can block must
    change nothing before its first blocking point. *)

type 'm t

type verb = Read | Write | Cas

val create : 'm Xenic_net.Fabric.t -> 'm t

(** [one_sided t ~src ~dst verb ~bytes ~at_target] issues one verb and
    blocks until completion, returning [at_target]'s result. It pays
    the initiator doorbell cost; {!one_sided_many} amortizes it across
    a batch. The verb runs as a callback chain ({!post}); the caller
    suspends once. *)
val one_sided :
  'm t ->
  src:int ->
  dst:int ->
  verb ->
  bytes:int ->
  at_target:(unit -> 'a) ->
  'a

(** [one_sided_many t ~src verbs] issues a batch behind one doorbell,
    in parallel, and blocks until all complete, returning the results
    in order. The verbs complete into one {!Xenic_sim.Process.join}:
    the caller suspends once, and no verb has a process of its own. *)
val one_sided_many :
  'm t ->
  src:int ->
  (int * verb * int * (unit -> 'a)) list ->
  'a list

(** [post t ~src ~dst verb ~bytes ~doorbell ~at_target k] is one verb
    as a callback chain, callable from any context; it returns at once.
    The verb pays the initiator doorbell if [doorbell] (a batch's first
    verb), is attributed to the caller's context, runs [at_target] at
    the target under that context, and runs [k] with its result under
    that context when the completion poll ends. *)
val post :
  'm t ->
  src:int ->
  dst:int ->
  verb ->
  bytes:int ->
  doorbell:bool ->
  at_target:(unit -> 'a) ->
  ('a -> unit) ->
  unit

(** [rpc_send t ~src ~dst ~bytes msg] transmits a two-sided SEND
    carrying [msg]: the doorbell, a hold of [src]'s NIC unit, then the
    frame, as a callback chain under the caller's attribution context.
    Callable from any context; it returns at once. The target's
    dispatch loop must call {!rpc_recv_cost} before handling [msg]
    (receive-buffer DMA + completion handling). *)
val rpc_send : 'm t -> src:int -> dst:int -> bytes:int -> 'm -> unit

(** Blocking: target-side receive cost for one two-sided message. *)
val rpc_recv_cost : 'm t -> node:int -> unit

(** Instantaneous load on [node]'s NIC processing unit: slots held plus
    waiters queued behind the (single-server) unit, so 0 = idle, 1 =
    busy, > 1 = backlog. The ingress-occupancy signal admission control
    samples. *)
val unit_busy : 'm t -> node:int -> int

(** The per-node NIC processing units, for the profiler. Names are
    node-unique ([rdma<n>]). *)
val resources : 'm t -> Xenic_sim.Resource.t list

(** {2 Gray-failure injection}

    Per-node degradation knobs for scenario runs. Slot [node] is only
    read by work running at that node, so mutations must run as engine
    events at that node to stay partition-safe. *)

(** [set_slowdown t ~node f] multiplies [node]'s NIC-unit service time
    by [f >= 1]; [1.0] restores nominal speed. *)
val set_slowdown : 'm t -> node:int -> float -> unit

(** [degrade_unit t ~node ~dur_ns] stalls [node]'s (single-server) NIC
    processing unit for [dur_ns] via the ordinary resource accounting.
    Must be called from an event/process at that node. *)
val degrade_unit : 'm t -> node:int -> dur_ns:float -> unit
