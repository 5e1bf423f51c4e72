(* Deterministic execution tracing.

   A trace is a bounded, in-memory buffer of timestamped events
   recorded against the simulated clock. Producers hold a
   [Trace.t option]; matching on [None] is the entire cost of a
   disabled trace, so instrumentation can stay on hot paths.

   Events carry only simulated time and caller-supplied labels — no
   wall clock, no hashing over unordered containers — so two runs of
   the same seed serialize to byte-identical JSON. *)

type event =
  | Span of {
      cat : string;
      name : string;
      pid : int;
      tid : int;
      ts : float;
      dur : float;
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

type t = {
  engine : Engine.t;
  limit : int;
  mutable events : event list; (* newest first *)
  mutable count : int;
  mutable dropped : int;
}

let create ?(limit = 200_000) engine =
  if limit <= 0 then invalid_arg "Trace.create: limit must be positive";
  { engine; limit; events = []; count = 0; dropped = 0 }

let count t = t.count

let dropped t = t.dropped

let add t ev =
  if t.count >= t.limit then t.dropped <- t.dropped + 1
  else begin
    t.events <- ev :: t.events;
    t.count <- t.count + 1
  end

let span t ~cat ~name ~pid ~tid ~ts ~dur ?(args = []) () =
  add t (Span { cat; name; pid; tid; ts; dur; args })

let instant t ~cat ~name ~pid ~tid ?(args = []) () =
  add t (Instant { cat; name; pid; tid; ts = Engine.now t.engine; args })

let counter t ~name ~pid ~values =
  add t (Counter { name; pid; ts = Engine.now t.engine; values })

(* Oldest first: insertion order for equal timestamps, which is itself
   deterministic under a deterministic engine. *)
let events t = List.rev t.events

(* Periodic gauge sampling, e.g. resource occupancy timelines. Each
   source is polled every [period_ns] and recorded as a Chrome counter
   track. The returned thunk stops the loop; the driver must call it
   once the run ends or the pending self-rescheduling timer would keep
   the engine from draining.

   [until_ns] is a hard accounting cutoff: the sampler self-stops at
   the first tick past it, without recording, even if the stop thunk
   has not fired yet. Without it a caller that stops the sampler only
   when the simulation drains (rather than when the measured schedule
   ends) would leak post-schedule drain samples into its accounting
   windows — the open-loop [t_end] trap. *)
let sampler ?(until_ns = infinity) t ~period_ns ~pid ~sources =
  if Float.compare period_ns 0.0 <= 0 then
    invalid_arg "Trace.sampler: period must be positive";
  let stopped = ref false in
  let rec tick () =
    if (not !stopped) && Float.compare (Engine.now t.engine) until_ns <= 0
    then begin
      List.iter
        (fun (name, poll) -> counter t ~name ~pid ~values:[ ("value", poll ()) ])
        sources;
      Engine.after t.engine period_ns tick
    end
  in
  tick ();
  fun () -> stopped := true

(* --- Chrome trace_event export ------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Simulated ns -> trace microseconds, fixed precision so output is
   reproducible byte for byte. *)
let us ns = Printf.sprintf "%.3f" (ns /. 1_000.0)

let args_json args =
  String.concat ","
    (List.map
       (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
       args)

let event_json buf ev =
  (match ev with
  | Span { cat; name; pid; tid; ts; dur; args } ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"ph\":\"X\",\"cat\":\"%s\",\"name\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s"
           (json_escape cat) (json_escape name) pid tid (us ts) (us dur));
      if args <> [] then
        Buffer.add_string buf (Printf.sprintf ",\"args\":{%s}" (args_json args));
      Buffer.add_char buf '}'
  | Instant { cat; name; pid; tid; ts; args } ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"%s\",\"name\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%s"
           (json_escape cat) (json_escape name) pid tid (us ts));
      if args <> [] then
        Buffer.add_string buf (Printf.sprintf ",\"args\":{%s}" (args_json args));
      Buffer.add_char buf '}'
  | Counter { name; pid; ts; values } ->
      Buffer.add_string buf
        (Printf.sprintf
           "{\"ph\":\"C\",\"name\":\"%s\",\"pid\":%d,\"ts\":%s,\"args\":{%s}"
           (json_escape name) pid (us ts)
           (String.concat ","
              (List.map
                 (fun (k, v) ->
                   Printf.sprintf "\"%s\":%.6f" (json_escape k) v)
                 values)));
      Buffer.add_char buf '}')

let to_chrome_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  let first = ref true in
  List.iter
    (fun ev ->
      if !first then first := false else Buffer.add_string buf ",\n";
      event_json buf ev)
    (events t);
  Buffer.add_string buf
    (Printf.sprintf "\n],\"displayTimeUnit\":\"ns\",\"droppedEvents\":%d}\n"
       t.dropped);
  Buffer.contents buf

let write_chrome_json t path =
  let oc = open_out path in
  output_string oc (to_chrome_json t);
  close_out oc
