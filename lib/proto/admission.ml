(* Bounded admission control for one coordinator: a depth-limited
   admission window, an ingress-backpressure threshold, and a service
   deadline. Pure bookkeeping — the open-loop driver owns the actual
   request queue and calls in at arrival, dequeue and completion. *)

type cause = Queue_full | Backpressure | Deadline

let cause_name = function
  | Queue_full -> "queue-full"
  | Backpressure -> "backpressure"
  | Deadline -> "deadline"

let all_causes = [ Queue_full; Backpressure; Deadline ]

type config = {
  capacity : int;
  backpressure : float;
  deadline_ns : float;
}

let unlimited =
  { capacity = max_int; backpressure = infinity; deadline_ns = infinity }

type t = { cfg : config; mutable depth : int }

let create cfg =
  if cfg.capacity < 1 then invalid_arg "Admission.create: capacity";
  if Float.compare cfg.backpressure 0.0 <= 0 then
    invalid_arg "Admission.create: backpressure";
  if Float.compare cfg.deadline_ns 0.0 <= 0 then
    invalid_arg "Admission.create: deadline_ns";
  { cfg; depth = 0 }

let depth t = t.depth

(* Arrival-time decision. A [Queue_full] or [Backpressure] result means
   the request was never admitted; [Ok] holds one unit of depth until
   {!finish} or {!drop_expired} releases it. Queue-full is checked
   first: a full queue sheds regardless of what the NIC looks like. *)
let offer t ~occupancy =
  if t.depth >= t.cfg.capacity then Error Queue_full
  else if Float.compare occupancy t.cfg.backpressure >= 0 then Error Backpressure
  else begin
    t.depth <- t.depth + 1;
    Ok ()
  end

(* Dequeue-time deadline check: a request that already waited past the
   deadline would miss it no matter how fast service is — drop it
   instead of burning service capacity on a response nobody is waiting
   for (the classic metastable-retry fuel). *)
let drop_expired t ~waited_ns =
  if Float.compare waited_ns t.cfg.deadline_ns >= 0 then begin
    t.depth <- t.depth - 1;
    true
  end
  else false

let finish t = t.depth <- t.depth - 1
