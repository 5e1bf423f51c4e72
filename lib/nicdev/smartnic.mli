(** On-path SmartNIC device model (LiquidIO 3): SoC cores on the packet
    data path, a packet-I/O path with a serialized per-frame cost, a
    PCIe DMA engine, and a host<->NIC message path over PCIe rings.

    The protocol layer composes these resources into dispatch loops; the
    model only prices the hardware. All costs come from
    {!Xenic_params.Hw}. *)

type t

val create :
  ?cores:int -> Xenic_sim.Engine.t -> Xenic_params.Hw.t -> t

val engine : t -> Xenic_sim.Engine.t

val hw : t -> Xenic_params.Hw.t

(** The SoC core pool. Handlers acquire a core for their compute. *)
val cores : t -> Xenic_sim.Resource.t

val dma : t -> Xenic_pcie.Dma.t

(** Blocking: pay the serialized packet RX/TX path cost for one frame. *)
val pkt_io : t -> unit

(** The packet-I/O path {!pkt_io} holds, and the cost of one frame on
    it now (slowdown included): for the dispatch loop, which holds the
    path from a callback chain. *)
val pkt_io_path : t -> Xenic_sim.Resource.t

val pkt_io_ns : t -> float

(** Blocking: occupy a core for [ops] protocol operations touching
    [bytes] of payload. [ops] scales the base per-op cost. A plain
    labelled argument rather than an optional one, so a call allocates
    no option. *)
val core_work : t -> ops:int -> bytes:int -> unit

(** [core_work_then t ~ops ~bytes k] is {!core_work} in callback form
    ({!Xenic_sim.Resource.use_then}), callable from any context: it
    pays the same cost, then runs [k]. *)
val core_work_then : t -> ops:int -> bytes:int -> (unit -> unit) -> unit

(** Blocking: hold an already-acquired core for the same duration; for
    handlers that manage core acquisition themselves. *)
val core_work_held : t -> ops:int -> bytes:int -> unit

(** NIC-local DRAM access cost (caching-index hit). *)
val mem_access : t -> unit

(** Blocking: cross between host and NIC over the PCIe message rings
    (one way). The cost a host-initiated operation pays that a
    NIC-resident one avoids (Fig 2). *)
val host_msg : t -> unit

(** Compute time on a NIC core for work that costs [host_ns] on a host
    core, scaled by the Table 1 per-thread speed ratio. *)
val scaled_exec_ns : t -> float -> float

(** Instantaneous ingress pressure: the most loaded of the core pool,
    packet-I/O path and DMA queues ((busy + queued) / servers, so
    > 1.0 means a backlog). The signal admission control samples. *)
val ingress_occupancy : t -> float

(** Core pool, packet-I/O path and DMA resources of this NIC, for the
    profiler. Names are per-device; callers must node-prefix them. *)
val resources : t -> Xenic_sim.Resource.t list

(** {2 Gray-failure injection}

    Per-device degradation knobs for scenario runs. Each device belongs
    to one node, so the state is partition-local by construction;
    mutations must run as engine events at that node. *)

(** [set_slowdown t f] multiplies NIC-side service times (core ops,
    packet I/O, NIC DRAM) by [f >= 1]; [1.0] restores nominal speed.
    Raises [Invalid_argument] on [f < 1]. *)
val set_slowdown : t -> float -> unit

(** [degrade_cores t ~n ~dur_ns] takes [min n (cores-1)] SoC cores out
    of service for [dur_ns] by occupying them through the ordinary
    resource accounting (so utilization and ingress-occupancy gauges see
    the degradation). Must be called from an event/process at this
    device's node. Raises [Invalid_argument] on [dur_ns <= 0]. *)
val degrade_cores : t -> n:int -> dur_ns:float -> unit
