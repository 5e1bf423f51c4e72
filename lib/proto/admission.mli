(** Bounded admission control for one coordinator under open-loop load.

    Three policies compose:

    - a {b depth limit}: at most [capacity] requests admitted and not
      yet finished (queued + in service) — arrivals beyond it shed;
    - {b backpressure}: arrivals shed while the coordinator's NIC
      ingress occupancy (see {!Smartnic.ingress_occupancy} /
      [System.ingress_occupancy]) is at or above [backpressure];
    - a {b service deadline}: a dequeued request that already waited
      [deadline_ns] is dropped instead of serviced — it would miss its
      deadline anyway, and servicing it anyway is what turns a
      transient overload into a metastable one.

    The module is pure bookkeeping over those policies (depth, offered /
    admitted / shed-by-cause counts); the open-loop driver owns the
    queue and process structure. One instance per coordinator — never
    shared across engine partitions. *)

type cause = Queue_full | Backpressure | Deadline

val cause_name : cause -> string

(** All causes, in a fixed reporting order. *)
val all_causes : cause list

type config = {
  capacity : int;  (** max admitted-and-unfinished requests, >= 1 *)
  backpressure : float;
      (** shed arrivals at ingress occupancy >= this; [infinity]
          disables *)
  deadline_ns : float;
      (** drop requests that waited this long at dequeue; [infinity]
          disables *)
}

(** No limits: every arrival admitted, nothing dropped. *)
val unlimited : config

type t

val create : config -> t

(** Requests admitted and not yet finished (queued + in service). *)
val depth : t -> int

(** Arrival-time decision: [Ok ()] admits (taking one unit of depth
    until {!finish} or {!drop_expired}); [Error cause] sheds. *)
val offer : t -> occupancy:float -> (unit, cause) result

(** Dequeue-time deadline check: true = the request waited past the
    deadline and was dropped (depth released). *)
val drop_expired : t -> waited_ns:float -> bool

(** Release one unit of depth at normal service completion. *)
val finish : t -> unit
