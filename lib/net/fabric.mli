(** Flow-level network fabric: full-duplex per-node links with finite
    bandwidth, FIFO serialization, and a fixed wire latency.

    A transmitted frame occupies the source TX link and the destination
    RX link for its serialization time, travels for
    [hw.wire_latency_ns], and lands in the destination's receive
    mailbox. Saturation and incast therefore emerge from queueing. *)

type 'm t

val create : Xenic_sim.Engine.t -> Xenic_params.Hw.t -> nodes:int -> 'm t

val nodes : 'm t -> int

val engine : 'm t -> Xenic_sim.Engine.t

val hw : 'm t -> Xenic_params.Hw.t

(** [send t ~src ~dst ~payload_bytes msgs] transmits one frame carrying
    [msgs]. Framing overhead is added here; [payload_bytes] covers the
    messages and any per-message headers. Callable from any context. *)
val send : 'm t -> src:int -> dst:int -> payload_bytes:int -> 'm list -> unit

(** Receive mailbox of a node; a dispatch loop should [recv] from it. *)
val rx : 'm t -> int -> 'm Packet.t Xenic_sim.Mailbox.t

(** [loopback t ~node msgs] delivers messages node-locally without
    touching the wire (used for same-node protocol messages). *)
val loopback : 'm t -> node:int -> 'm list -> unit

(** [carry t ~src ~dst ~payload_bytes ctx k] is the transport of
    hardware-terminated traffic such as a one-sided RDMA verb's request
    or response: a frame that occupies the links and crosses the wire
    like one from {!send}, with both link holds attributed to [ctx],
    and then runs [k] as the destination's rx hold ends instead of
    delivering to the receive mailbox. It never blocks: [k] runs under
    whatever context is ambient then. Framing overhead is added here,
    symmetric with {!send}; [payload_bytes] covers the verb's headers
    and data only. *)
val carry :
  'm t ->
  src:int ->
  dst:int ->
  payload_bytes:int ->
  Xenic_sim.Attrib.ctx ->
  (unit -> unit) ->
  unit

(** Link units (TX + RX) of [node] held right now, in [0, 2]; for
    utilization-timeline sampling. *)
val link_busy : 'm t -> node:int -> int

(** Every link resource (per node: TX then RX), for the profiler's
    bottleneck accounting. Names are already node-unique
    ([tx<n>]/[rx<n>]). *)
val resources : 'm t -> Xenic_sim.Resource.t list

(** Wire accounting: total frames and bytes transmitted. *)
val frames_sent : 'm t -> int

val bytes_sent : 'm t -> int

(** [set_rate_override t rate] replaces the per-link byte rate (bytes per
    nanosecond); used by experiments that change link counts. *)
val set_rate_override : 'm t -> float option -> unit

(** {2 Gray-failure injection}

    Per-link fault state for scenario runs: cuts (frames stall until
    healed), loss (modeled as a reliable transport over a lossy wire —
    each lost transmission costs one retransmit timeout, capped at
    {!max_retransmits}, so frames are delayed, never dropped), and
    latency multipliers. All state is sharded by source node and read
    only at send time on the source's partition; mutations must run as
    engine events scheduled [~node:src] to stay legal under the
    windowed parallel engine. With faults never enabled the send path
    is bit-identical to a fault-free build. *)

(** Cap on retransmissions of one frame; bounds worst-case extra delay
    at [max_retransmits * rto_ns] per hop. *)
val max_retransmits : int

(** [enable_faults t ~seed ~rto_ns] allocates the fault state (idempotent;
    keeps the first seed/rto). [rto_ns] is the retransmit timeout lost
    transmissions pay. Raises [Invalid_argument] on [rto_ns <= 0]. *)
val enable_faults : 'm t -> seed:int64 -> rto_ns:float -> unit

(** [set_cut t ~src ~dst cut] stalls (or releases) frames src->dst.
    Direction matters: cut one way models an asymmetric partition.
    Requires {!enable_faults} first. *)
val set_cut : 'm t -> src:int -> dst:int -> bool -> unit

(** [set_loss t ~src ~dst p] sets the per-transmission retransmit
    probability of the src->dst link. [p] in [0, 1). *)
val set_loss : 'm t -> src:int -> dst:int -> float -> unit

(** [set_delay t ~src ~dst factor] multiplies the src->dst wire latency.
    [factor >= 1] (extra latency only, so windowed-lookahead legality is
    preserved). *)
val set_delay : 'm t -> src:int -> dst:int -> float -> unit
