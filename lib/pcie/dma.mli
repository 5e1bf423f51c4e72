(** LiquidIO PCIe DMA engine model (§3.5, Fig 4).

    The engine exposes [hw.dma_queues] hardware request queues. A
    request occupies its queue for a per-element engine time; vectored
    submission packs up to [hw.dma_vector_max] requests behind a single
    submission overhead. Data visibility lags engine service by the
    measured read/write completion latency. A shared bus resource models
    PCIe bandwidth across all queues.

    Requests may be submitted asynchronously with a completion callback
    ({!submit}) — the continuation-passing style of Xenic's operations
    framework (§4.3.1) — or as blocking process calls ({!read} /
    {!write}). With vectoring disabled (the Fig 9a "-Async DMA"
    configuration) every request pays the full submission cost. *)

type t

type kind = Read | Write

val create : Xenic_sim.Engine.t -> Xenic_params.Hw.t -> t

(** Enable or disable vectored submission (default: enabled). *)
val set_vectored : t -> bool -> unit

(** [submit t kind ~bytes ~queue k] enqueues a request on queue
    [queue mod hw.dma_queues] and calls [k] when the data transfer has
    completed. Callable from any context. *)
val submit : t -> kind -> bytes:int -> queue:int -> (unit -> unit) -> unit

(** Blocking variants; the calling process resumes at completion. The
    queue defaults to a round-robin assignment. *)
val read : ?queue:int -> t -> bytes:int -> unit

val write : ?queue:int -> t -> bytes:int -> unit

(** Operations completed and vectors issued (for amortization reports). *)
val ops_completed : t -> int

val vectors_issued : t -> int

(** Queue engines busy right now, in [0, hw.dma_queues]; for
    utilization-timeline sampling. *)
val queues_busy : t -> int

(** Instantaneous queue load — busy engines plus waiting and gathering
    requests, per queue — as a dimensionless occupancy: 0 = idle,
    1 = every engine busy with nothing queued, > 1 = backlog. The
    ingress signal admission control samples. *)
val occupancy : t -> float

(** The queue engines (in index order) followed by the shared PCIe bus,
    for the profiler's bottleneck accounting. Names are per-device
    ([dmaq<i>], [pcie-bus]); callers must node-prefix them. *)
val resources : t -> Xenic_sim.Resource.t list
