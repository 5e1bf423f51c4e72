(* Span recording for the traced run. Spans are kept in memory and
   written out when the run ends. Host spans are timed with {!Clock}
   (CLOCK_MONOTONIC, the clock Runtime_events stamps GC phases with);
   the per-transaction [proto.run_txn] spans are in simulated time. *)

(* Growable buffer; [dummy] fills unused slots. *)
module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

  let create dummy = { a = Array.make 1024 dummy; n = 0; dummy }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) t.dummy in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n

  let get t i = t.a.(i)

  let clear t =
    t.a <- Array.make 1024 t.dummy;
    t.n <- 0

  let to_list t = List.init t.n (fun i -> t.a.(i))
end

(* GC phases read back from Runtime_events. Only outermost phases are
   kept; an interval is [major] when any phase inside it is major-heap
   work, [minor] otherwise. *)
module Gc_events = struct
  let cursor = ref None

  let depth = ref 0

  let cur_start = ref 0

  let cur_major = ref false

  let lost = ref 0

  (* (start_ns, stop_ns, major) *)
  let intervals = Vec.create (0, 0, false)

  let is_major = function
    | Runtime_events.EV_MAJOR | EV_MAJOR_SWEEP | EV_MAJOR_MARK_ROOTS
    | EV_MAJOR_MARK | EV_MAJOR_EPHE_MARK | EV_MAJOR_EPHE_SWEEP
    | EV_MAJOR_FINISH_MARKING | EV_MAJOR_GC_CYCLE_DOMAINS
    | EV_MAJOR_GC_PHASE_CHANGE | EV_MAJOR_GC_STW | EV_MAJOR_MARK_OPPORTUNISTIC
    | EV_MAJOR_SLICE | EV_MAJOR_FINISH_CYCLE | EV_MAJOR_FINISH_SWEEPING
    | EV_EXPLICIT_GC_MAJOR | EV_EXPLICIT_GC_FULL_MAJOR | EV_EXPLICIT_GC_COMPACT
    | EV_EXPLICIT_GC_MAJOR_SLICE ->
        true
    | _ -> false

  let ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts)

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ ts phase ->
        if !depth = 0 then begin
          cur_start := ns ts;
          cur_major := false
        end;
        if is_major phase then cur_major := true;
        incr depth)
      ~runtime_end:(fun _ ts _ ->
        (* An end with no open phase closes one that began before the
           cursor existed: skip it. *)
        if !depth > 0 then begin
          decr depth;
          if !depth = 0 then Vec.push intervals (!cur_start, ns ts, !cur_major)
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let poll () =
    match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c callbacks None)
    | None -> ()

  (* Start (or resume) recording. Runtime_events writes its ring to
     [<pid>.events] in the working directory; the runtime removes the
     file at exit. *)
  let resume () =
    match !cursor with
    | Some _ -> Runtime_events.resume ()
    | None ->
        Runtime_events.start ();
        cursor := Some (Runtime_events.create_cursor None)

  let pause () =
    poll ();
    Runtime_events.pause ()

  (* Intervals recorded since the last [take]. *)
  let take () =
    poll ();
    let l = Vec.to_list intervals in
    Vec.clear intervals;
    l
end

type clock = Host | Sim

type span = {
  id : int;
  name : string;
  clock : clock;
  start : float;  (* ns: host ns since the recorder's epoch, or simulated ns *)
  stop : float;
  mutable parent : int;  (* -1: root *)
  aggregated : bool;
      (* the summed time of many short calls, not one interval; not
         subtracted from the parent's self time *)
  args : (string * Json.t) list;
}

(* One proto.run_txn, kept compact until it is written out. *)
type txn = {
  t_start : float;  (* simulated ns *)
  t_stop : float;
  t_node : int;
  t_cls : string;
  t_committed : bool;
  t_queued : float;  (* ns between arrival and service (open loop) *)
  t_parent : int;
}

type t = {
  run : string;
  mutable next : int;
  mutable spans : span list;
  gen : int Vec.t;  (* workload.generate (start, stop) pairs, host ns *)
  txns : txn Vec.t;
  mutable txns_omitted : int;
}

(* Host ns origin of every span in the process. *)
let epoch = Clock.now_ns ()

let dummy_txn =
  {
    t_start = 0.0;
    t_stop = 0.0;
    t_node = 0;
    t_cls = "";
    t_committed = false;
    t_queued = 0.0;
    t_parent = -1;
  }

let create ~run =
  {
    run;
    next = 0;
    spans = [];
    gen = Vec.create 0;
    txns = Vec.create dummy_txn;
    txns_omitted = 0;
  }

let fresh_id t =
  let id = t.next in
  t.next <- id + 1;
  id

let host ns = float_of_int (ns - epoch)

(* Record a host interval [start_ns, stop_ns] (raw {!Clock.now_ns}
   readings). The parent is found by nesting when the run ends unless
   [parent] is given; [id] is one reserved earlier with {!fresh_id},
   for a span whose children are recorded before it ends. *)
let add t ?id ?(parent = -1) ?(aggregated = false) ?(args = []) name
    ~start_ns ~stop_ns =
  let id = match id with Some id -> id | None -> fresh_id t in
  t.spans <-
    {
      id;
      name;
      clock = Host;
      start = host start_ns;
      stop = host stop_ns;
      parent;
      aggregated;
      args;
    }
    :: t.spans;
  id

let generate t ~start_ns ~stop_ns =
  Vec.push t.gen start_ns;
  Vec.push t.gen stop_ns

let generate_count t = Vec.length t.gen / 2

let run_txn t ~parent ~node ~cls ~start ~stop ~committed ~queued =
  Vec.push t.txns
    {
      t_start = start;
      t_stop = stop;
      t_node = node;
      t_cls = cls;
      t_committed = committed;
      t_queued = queued;
      t_parent = parent;
    }

(* Turn buffered per-call records and GC intervals into spans, then
   give every host span without a preset parent the innermost host
   span enclosing it. Returns the number of host spans that straddle
   another's boundary instead of nesting (0 on a sound trace). Only the
   first [per_txn_limit] proto.run_txn records become spans: they are
   written out, never measured. *)
let finish t ~per_txn_limit =
  for i = 0 to generate_count t - 1 do
    ignore
      (add t "workload.generate" ~start_ns:(Vec.get t.gen (2 * i))
         ~stop_ns:(Vec.get t.gen ((2 * i) + 1)))
  done;
  Vec.clear t.gen;
  List.iter
    (fun (a, b, major) ->
      ignore
        (add t
           (if major then "runtime.gc_major" else "runtime.gc_minor")
           ~start_ns:a ~stop_ns:b))
    (Gc_events.take ());
  let kept = min per_txn_limit (Vec.length t.txns) in
  for i = 0 to kept - 1 do
    let x = Vec.get t.txns i in
    t.spans <-
      {
        id = fresh_id t;
        name = "proto.run_txn";
        clock = Sim;
        start = x.t_start;
        stop = x.t_stop;
        parent = x.t_parent;
        aggregated = false;
        args =
          [
            ("node", Json.Int x.t_node);
            ("class", Json.Str x.t_cls);
            ("outcome", Json.Str (if x.t_committed then "committed" else "aborted"));
            ("queued_us", Json.Num (x.t_queued /. 1e3));
          ];
      }
      :: t.spans
  done;
  t.txns_omitted <- Vec.length t.txns - kept;
  Vec.clear t.txns;
  let nest =
    List.filter (fun s -> s.clock = Host && not s.aggregated) t.spans
    |> List.sort (fun a b ->
           match Float.compare a.start b.start with
           | 0 -> (
               match Float.compare b.stop a.stop with
               | 0 -> Int.compare a.id b.id
               | c -> c)
           | c -> c)
  in
  let straddles = ref 0 in
  let stack = ref [] in
  List.iter
    (fun s ->
      let rec unwind () =
        match !stack with
        | top :: rest when Float.compare top.stop s.start <= 0 ->
            stack := rest;
            unwind ()
        | _ -> ()
      in
      unwind ();
      (match !stack with
      | top :: _ ->
          if Float.compare s.stop top.stop > 0 then incr straddles;
          if s.parent < 0 then s.parent <- top.id
      | [] -> ());
      stack := s :: !stack)
    nest;
  t.spans <- List.sort (fun a b -> Int.compare a.id b.id) t.spans;
  !straddles

let dur s = s.stop -. s.start

(* Self time of every host span: its duration minus its real (not
   aggregated) host children. *)
let self_times t =
  let self = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.clock = Host then Hashtbl.replace self s.id (dur s))
    t.spans;
  List.iter
    (fun s ->
      if s.clock = Host && (not s.aggregated) && s.parent >= 0 then
        match Hashtbl.find_opt self s.parent with
        | Some v -> Hashtbl.replace self s.parent (v -. dur s)
        | None -> ())
    t.spans;
  self

let named t name = List.filter (fun s -> String.equal s.name name) t.spans

(* Host spans in the subtree under [root] (excluded). *)
let descendants t root =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.clock = Host && s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    t.spans;
  let rec go acc s =
    let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
    List.fold_left go (List.rev_append kids acc) kids
  in
  go [] root

(* Chrome trace_event JSON (load in chrome://tracing or Perfetto): host
   spans on pid 0, simulated spans on pid 1 with one track per node.
   Timestamps are microseconds; each span's args carry its id, parent,
   run id, clock and, for host spans, its self time. Only the first
   [per_txn_limit] spans of each per-transaction kind are written, to
   keep the file loadable; the metrics count them all. *)
let to_chrome t ~per_txn_limit ~other =
  let omitted = ref t.txns_omitted in
  let self = self_times t in
  let us ns = Json.Num (ns /. 1e3) in
  let clock_name s = match s.clock with Host -> "host" | Sim -> "sim" in
  let event s =
    let pid, tid =
      match (s.clock, List.assoc_opt "node" s.args) with
      | Host, _ -> (0, 0)
      | Sim, Some (Json.Int n) -> (1, n)
      | Sim, _ -> (1, 0)
    in
    let self_arg =
      match Hashtbl.find_opt self s.id with
      | Some v when not s.aggregated -> [ ("self_us", us v) ]
      | _ -> []
    in
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str (clock_name s));
        ("ph", Json.Str "X");
        ("pid", Json.Int pid);
        ("tid", Json.Int tid);
        ("ts", us s.start);
        ("dur", us (dur s));
        ( "args",
          Json.Obj
            ([
               ("id", Json.Int s.id);
               ("parent", Json.Int s.parent);
               ("run", Json.Str t.run);
               ("clock", Json.Str (clock_name s));
               ("aggregated", Json.Bool s.aggregated);
             ]
            @ self_arg @ s.args) );
      ]
  in
  let per_txn = [ "workload.generate"; "proto.run_txn" ] in
  let written = Hashtbl.create 2 in
  let buf = Buffer.create (1 lsl 20) in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  let first = ref true in
  List.iter
    (fun s ->
      let n = Option.value ~default:0 (Hashtbl.find_opt written s.name) in
      if List.mem s.name per_txn && n >= per_txn_limit then incr omitted
      else begin
        Hashtbl.replace written s.name (n + 1);
        if not !first then Buffer.add_string buf ",\n";
        first := false;
        Json.write buf (event s)
      end)
    t.spans;
  Buffer.add_string buf "\n],\n\"otherData\": ";
  Json.write buf
    (match other with
    | Json.Obj l -> Json.Obj (l @ [ ("per_txn_spans_omitted", Json.Int !omitted) ])
    | v -> v);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
