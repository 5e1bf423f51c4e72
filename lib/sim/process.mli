(** Cooperative simulation processes built on OCaml 5 effect handlers.

    A process is a plain [unit -> unit] function started with {!spawn}.
    Inside a process, {!sleep} advances simulated time and {!suspend}
    parks the process until a component resumes it — these are the only
    blocking points. Blocking outside a process raises {!Not_in_process}. *)

exception Not_in_process

(** [spawn engine f] starts [f] as a process at the current instant. An
    exception escaping [f] terminates the whole simulation (programming
    error), carrying its backtrace. *)
val spawn : Engine.t -> (unit -> unit) -> unit

(** Block the calling process for [delay] simulated nanoseconds. On a
    partitioned engine, [~node] makes the wakeup — and everything the
    process does after it, until its next tagged hop — belong to that
    node's partition; the fabric tags its wire-latency hop with the
    destination so delivery-side work runs on the destination's
    partition. Ignored on an unpartitioned engine. *)
val sleep : ?node:int -> Engine.t -> float -> unit

(** [suspend register] parks the calling process. [register] receives a
    one-shot [resume] function; calling [resume v] (typically from an
    event or another process) makes [suspend] return [v]. *)
val suspend : (('a -> unit) -> unit) -> 'a

(** [parallel engine thunks] runs each thunk as its own process and
    blocks the caller until all have finished, returning their results
    in order — the fork/join used for fan-out requests. A single thunk
    runs inline in the caller, with no process of its own. *)
val parallel : Engine.t -> (unit -> 'a) list -> 'a list
