(** Unbounded FIFO message queue with blocking receive.

    The primitive communication channel between simulation processes and
    device models. Sends never block; a receive on an empty mailbox parks
    the calling process until a message arrives. Wakeups are scheduled as
    zero-delay events so delivery order stays deterministic. *)

type 'a t

(** [create ?name engine] makes an empty mailbox. On a strict engine it
    registers a sanitizer check: messages still queued when
    {!Engine.sanitize} runs are reported (under [name]) as undelivered. *)
val create : ?name:string -> Engine.t -> 'a t

(** Enqueue a message, waking one waiting receiver if any. *)
val send : 'a t -> 'a -> unit

(** Dequeue the oldest message, blocking until one is available. *)
val recv : 'a t -> 'a

(** A receiver built once for a loop that parks again and again. *)
type 'a waiter

(** [waiter ~dummy k] builds the receiver that {!park} hands messages
    to [k]. [dummy] is never delivered: it stands in the waiter's
    hand-over slot between messages, so none is retained. *)
val waiter : dummy:'a -> ('a -> unit) -> 'a waiter

(** [park t w] is {!recv} in callback form for [w = waiter k],
    callable from any context, with no closure built per park. If a
    message is queued, [k] runs on the oldest one at once. Otherwise
    [w] is parked, FIFO with blocked receivers, and the {!send} that
    reaches it hands the message over through the same zero-delay event
    that wakes a blocked {!recv}. A waiter may be parked once at a
    time: park it again only after a message has reached its callback
    (from inside the callback at the earliest). *)
val park : 'a t -> 'a waiter -> unit

(** [recv_burst t ~max] dequeues up to [max] immediately-available
    messages (possibly zero), never blocking. The library receives only
    through {!recv} and {!park}; this is kept for reading what a run
    left queued from outside any process, as the tests of the fabric's
    delivery order do. *)
val recv_burst : 'a t -> max:int -> 'a list
