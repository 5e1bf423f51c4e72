(** Per-destination gather-list transmission batching (§4.3.2).

    The SmartNIC collects outbound messages per destination and emits
    one frame when a flush trigger fires: the gather list reaches the
    MTU, the message cap, or the opportunistic-batching window expires.
    With aggregation disabled every message is its own frame — the
    configuration used by the Fig 9a ablation step. *)

type 'm t

(** [create fabric ~src ~enabled ~dummy]: [dummy] is never sent; it
    fills the gather slots no pending message holds, so a flushed
    batch is not retained. *)
val create :
  'm Fabric.t -> src:int -> enabled:bool -> dummy:'m -> 'm t

(** [push t ~dst ~bytes msg] queues [msg] ([bytes] of payload) for
    [dst], transmitting according to the batching policy. Messages to
    the local node short-circuit through {!Fabric.loopback}. *)
val push : 'm t -> dst:int -> bytes:int -> 'm -> unit

(** Frames emitted so far. The size-trigger and window-timer tests read
    it at the instant a frame leaves, before the frame reaches its
    receiver. *)
val frames : 'm t -> int
