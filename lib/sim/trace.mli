(** Deterministic execution tracing.

    A bounded in-memory buffer of timestamped spans, instants and
    counter samples recorded against the simulated clock. Producers
    hold a [Trace.t option] — a [None] match is the full cost of
    disabled tracing — and events carry only simulated time and
    caller-supplied labels, so same-seed runs export byte-identical
    JSON. Export targets Chrome's [trace_event] format (load in
    [chrome://tracing] or Perfetto). *)

type t

type event =
  | Span of {
      cat : string;
      name : string;
      pid : int;  (** process track, e.g. a node id *)
      tid : int;  (** thread track, e.g. a transaction sequence number *)
      ts : float;  (** start, simulated ns *)
      dur : float;  (** length, simulated ns *)
      args : (string * string) list;
    }
  | Instant of {
      cat : string;
      name : string;
      pid : int;
      tid : int;
      ts : float;
      args : (string * string) list;
    }
  | Counter of {
      name : string;
      pid : int;
      ts : float;
      values : (string * float) list;
    }

(** [create ?limit engine] makes an empty trace buffering at most
    [limit] events (default 200k); further events are counted in
    {!dropped} instead of recorded. *)
val create : ?limit:int -> Engine.t -> t

(** Events recorded so far. *)
val count : t -> int

(** Events discarded because the buffer limit was reached. *)
val dropped : t -> int

(** Record a completed span: [ts]/[dur] are in simulated ns (the caller
    usually measured them around the traced section). *)
val span :
  t ->
  cat:string ->
  name:string ->
  pid:int ->
  tid:int ->
  ts:float ->
  dur:float ->
  ?args:(string * string) list ->
  unit ->
  unit

(** Record a point event at the current simulated time. *)
val instant :
  t ->
  cat:string ->
  name:string ->
  pid:int ->
  tid:int ->
  ?args:(string * string) list ->
  unit ->
  unit

(** Record a counter sample at the current simulated time.
    The library records counters through {!sampler}; test_trace writes one
    sample by hand. *)
val counter : t -> name:string -> pid:int -> values:(string * float) list -> unit

(** Events in chronological order (insertion order for equal
    timestamps). *)
val events : t -> event list

(** [sampler t ~period_ns ~pid ~sources] polls every [(name, poll)]
    source each [period_ns] and records the gauge as a counter track.
    Returns a stop thunk; callers must invoke it when the measured run
    ends, otherwise the self-rescheduling timer keeps the engine from
    draining. [until_ns] (default [infinity]) is a hard accounting
    cutoff: a tick strictly past it records nothing and the loop
    self-stops, so post-schedule drain samples cannot leak into an
    open-loop run's accounting interval even when the stop thunk only
    fires once the engine drains. *)
val sampler :
  ?until_ns:float ->
  t ->
  period_ns:float ->
  pid:int ->
  sources:(string * (unit -> float)) list ->
  unit ->
  unit

(** Serialize to Chrome [trace_event] JSON. Deterministic: fixed field
    order, fixed float formatting, events in {!events} order. *)
val to_chrome_json : t -> string

val write_chrome_json : t -> string -> unit
