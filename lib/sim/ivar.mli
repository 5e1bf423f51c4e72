(** Write-once synchronization variable.

    Processes block in {!read} until {!fill} supplies the value; used for
    request/response joins (e.g. awaiting all EXECUTE responses). *)

type 'a t

(** [create ?name engine] makes an empty ivar. On a strict engine it
    registers a sanitizer check: an ivar that still has blocked readers
    when {!Engine.sanitize} runs is reported (under [name]) as a lost
    wakeup. *)
val create : ?name:string -> Engine.t -> 'a t

(** [fill t v] sets the value, waking all readers. Raises
    [Invalid_argument] if already filled. *)
val fill : 'a t -> 'a -> unit

val is_filled : 'a t -> bool

(** Block until filled, then return the value. Returns immediately if
    already filled. *)
val read : 'a t -> 'a

(** [read_timeout t ~timeout_ns] blocks like {!read} but gives up after
    [timeout_ns] simulated nanoseconds, returning [None]. The wait is
    cancellable: a fill after the timeout does not resume the caller
    (and a timed-out wait is not reported by the strict-engine check),
    while a fill before the timeout defuses the timer — the caller is
    resumed exactly once either way. *)
val read_timeout : 'a t -> timeout_ns:float -> 'a option

