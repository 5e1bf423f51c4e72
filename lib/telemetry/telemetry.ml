(* Deterministic windowed flight recorder.

   Event-free observation: every recorder below runs inside an existing
   simulation event and never schedules one of its own, so attaching a
   recorder cannot shift the engine's (time, seq) order — a recorded
   run and an unrecorded run of the same seed are the same run.

   Sharding mirrors the protocol metrics pattern: the writing
   partition's shard is the only one touched on the hot path, and the
   shard index becomes the [part] dimension of every series it emits,
   so the post-run merge is a concatenation sorted on a total key order
   — byte-identical whether one domain or several serviced the
   partitions. *)

open Xenic_sim
open Xenic_stats

type cell = {
  mutable offered : int;
  mutable admitted : int;
  mutable committed : int;
  aborted : (string, int) Hashtbl.t; (* reason -> count *)
  sheds : (string, int) Hashtbl.t; (* cause -> count *)
  lat : Histogram.t;
  mutable q_sum : int;
  mutable q_n : int;
  mutable q_max : int;
  occ : (string, float) Hashtbl.t; (* resource -> busy ns *)
}

(* Series key within a shard; the shard index supplies [part]. *)
type key = { k_win : int; k_stack : string; k_node : int; k_label : string }

type t = {
  engine : Engine.t;
  clock : Wclock.t;
  shards : (key, cell) Hashtbl.t array;
  mutable cutoff : float option;
  mutable sealed_end : float option;
}

let default_window_ns = 100_000.0

(* One shard per engine partition: partitions execute concurrently, so
   recording must stay partition-local, and the partition ids are fixed
   by the topology, independent of the domain count. *)
let create ?(window_ns = default_window_ns) engine =
  {
    engine;
    clock = Wclock.make ~t0:(Engine.now engine) ~width_ns:window_ns;
    shards = Array.init (Engine.partitions engine) (fun _ -> Hashtbl.create 64);
    cutoff = None;
    sealed_end = None;
  }

let window_ns t = Wclock.width_ns t.clock

let t0 t = Wclock.t0 t.clock

let set_cutoff t c =
  if Float.compare c (t0 t) < 0 then
    invalid_arg "Telemetry.set_cutoff: cutoff before t0";
  t.cutoff <- Some c

let t_end t =
  match t.sealed_end with
  | Some te -> te
  | None -> invalid_arg "Telemetry.t_end: not sealed"

let n_windows t = Wclock.n_windows t.clock ~t_end:(t_end t)

let new_cell () =
  {
    offered = 0;
    admitted = 0;
    committed = 0;
    aborted = Hashtbl.create 4;
    sheds = Hashtbl.create 4;
    lat = Histogram.create ();
    q_sum = 0;
    q_n = 0;
    q_max = 0;
    occ = Hashtbl.create 4;
  }

let find_or_add shard k =
  match Hashtbl.find_opt shard k with
  | Some c -> c
  | None ->
      let c = new_cell () in
      Hashtbl.replace shard k c;
      c

let get_cell t ~win ~stack ~node ~label =
  find_or_add
    t.shards.(Engine.current_partition t.engine)
    { k_win = win; k_stack = stack; k_node = node; k_label = label }

(* The common instantaneous-recorder prologue: drop once sealed, drop
   strictly past the cutoff (the open-loop drain guard), else resolve
   the (unclamped) window of "now" — seal-time folding handles an index
   one past the end when the cutoff falls exactly on a window edge. *)
let live_cell t ~stack ~node ~label =
  match t.sealed_end with
  | Some _ -> None
  | None -> (
      let now = Engine.now t.engine in
      match t.cutoff with
      | Some c when Float.compare now c > 0 -> None
      | _ ->
          Some (get_cell t ~win:(Wclock.index t.clock now) ~stack ~node ~label))

let bump tbl k n =
  Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let record_commit ?(label = "-") t ~stack ~node ~latency_ns =
  match live_cell t ~stack ~node ~label with
  | None -> ()
  | Some c ->
      c.committed <- c.committed + 1;
      Histogram.record c.lat latency_ns

let record_abort ?(label = "-") t ~stack ~node ~reason ~latency_ns =
  match live_cell t ~stack ~node ~label with
  | None -> ()
  | Some c ->
      bump c.aborted reason 1;
      Histogram.record c.lat latency_ns

let record_offered ?(label = "-") t ~stack ~node =
  match live_cell t ~stack ~node ~label with
  | None -> ()
  | Some c -> c.offered <- c.offered + 1

let record_admitted ?(label = "-") t ~stack ~node =
  match live_cell t ~stack ~node ~label with
  | None -> ()
  | Some c -> c.admitted <- c.admitted + 1

let record_shed ?(label = "-") t ~stack ~node ~cause =
  match live_cell t ~stack ~node ~label with
  | None -> ()
  | Some c -> bump c.sheds cause 1

let sample_queue ?(label = "-") t ~stack ~node ~depth =
  match live_cell t ~stack ~node ~label with
  | None -> ()
  | Some c ->
      c.q_sum <- c.q_sum + depth;
      c.q_n <- c.q_n + 1;
      if depth > c.q_max then c.q_max <- depth

let add_occ c resource area =
  Hashtbl.replace c.occ resource
    (area +. Option.value ~default:0.0 (Hashtbl.find_opt c.occ resource))

(* Before a cutoff is set the span splits over uncut windows; seal-time
   folding clips whatever lands past the eventual t_end. *)
let add_occupancy t ~stack ~node ~resource ~from ~until ~value =
  match t.sealed_end with
  | Some _ -> ()
  | None ->
      Wclock.integrate t.clock ?t_end:t.cutoff ~from ~until ~value
        (fun win area ->
          add_occ (get_cell t ~win ~stack ~node ~label:"-") resource area)

(* --- Seal ----------------------------------------------------------- *)

let compare_key a b =
  let c = Int.compare a.k_win b.k_win in
  if c <> 0 then c
  else
    let c = String.compare a.k_stack b.k_stack in
    if c <> 0 then c
    else
      let c = Int.compare a.k_node b.k_node in
      if c <> 0 then c else String.compare a.k_label b.k_label

let sorted_pairs tbl cmp =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> cmp a b)

let merge_cell ~into src =
  into.offered <- into.offered + src.offered;
  into.admitted <- into.admitted + src.admitted;
  into.committed <- into.committed + src.committed;
  List.iter
    (fun (r, n) -> bump into.aborted r n)
    (sorted_pairs src.aborted String.compare);
  List.iter
    (fun (c, n) -> bump into.sheds c n)
    (sorted_pairs src.sheds String.compare);
  Histogram.merge ~into:into.lat src.lat;
  into.q_sum <- into.q_sum + src.q_sum;
  into.q_n <- into.q_n + src.q_n;
  if src.q_max > into.q_max then into.q_max <- src.q_max;
  List.iter
    (fun (r, a) -> add_occ into r a)
    (sorted_pairs src.occ String.compare)

let seal t =
  match t.sealed_end with
  | Some _ -> ()
  | None ->
      let now = Engine.now t.engine in
      let te =
        match t.cutoff with Some c -> Float.min c now | None -> now
      in
      let last = Wclock.n_windows t.clock ~t_end:te - 1 in
      Array.iter
        (fun shard ->
          (* Fold cells past the final window into it (the cutoff falls
             exactly on a window edge), or drop everything when the
             accounting interval is empty. *)
          let overflow =
            Hashtbl.fold
              (fun k c acc -> if k.k_win > last then (k, c) :: acc else acc)
              shard []
            |> List.sort (fun (a, _) (b, _) -> compare_key a b)
          in
          List.iter
            (fun (k, c) ->
              Hashtbl.remove shard k;
              if last >= 0 then
                merge_cell ~into:(find_or_add shard { k with k_win = last }) c)
            overflow)
        t.shards;
      t.sealed_end <- Some te

(* --- Reading --------------------------------------------------------- *)

type series = {
  win : int;
  stack : string;
  node : int;
  part : int;
  label : string;
  s_offered : int;
  s_admitted : int;
  s_committed : int;
  s_aborted : (string * int) list;
  s_shed : (string * int) list;
  s_lat : Histogram.t;
  s_q_samples : int;
  s_q_mean : float;
  s_q_max : int;
  s_occ : (string * float) list;
}

(* Export order: (win, stack, node, part, label). *)
let cell_order (ka, pa, _) (kb, pb, _) =
  let c = Int.compare ka.k_win kb.k_win in
  if c <> 0 then c
  else
    let c = String.compare ka.k_stack kb.k_stack in
    if c <> 0 then c
    else
      let c = Int.compare ka.k_node kb.k_node in
      if c <> 0 then c
      else
        let c = Int.compare pa pb in
        if c <> 0 then c else String.compare ka.k_label kb.k_label

(* (key, part, cell) over every shard, sorted on the full series key —
   the one deterministic traversal everything below derives from. *)
let all_cells t =
  ignore (t_end t);
  let per_shard =
    Array.mapi
      (fun part shard ->
        List.sort cell_order
          (Hashtbl.fold (fun k c l -> (k, part, c) :: l) shard []))
      t.shards
  in
  List.sort cell_order (List.concat (Array.to_list per_shard))

let q_mean c =
  if c.q_n = 0 then 0.0 else float_of_int c.q_sum /. float_of_int c.q_n

let series t =
  List.map
    (fun (k, part, c) ->
      {
        win = k.k_win;
        stack = k.k_stack;
        node = k.k_node;
        part;
        label = k.k_label;
        s_offered = c.offered;
        s_admitted = c.admitted;
        s_committed = c.committed;
        s_aborted = sorted_pairs c.aborted String.compare;
        s_shed = sorted_pairs c.sheds String.compare;
        s_lat = c.lat;
        s_q_samples = c.q_n;
        s_q_mean = q_mean c;
        s_q_max = c.q_max;
        s_occ = sorted_pairs c.occ String.compare;
      })
    (all_cells t)

type agg = {
  a_win : int;
  a_start_ns : float;
  a_width_ns : float;
  a_offered : int;
  a_admitted : int;
  a_committed : int;
  a_aborted : int;
  a_shed : int;
  a_lat : Histogram.t;
  a_q_mean : float;
}

(* Each window's cells, in [all_cells] order, fold into one fresh cell. *)
let rollup t =
  let te = t_end t in
  let cells = Array.init (n_windows t) (fun _ -> new_cell ()) in
  List.iter
    (fun (k, _part, c) -> merge_cell ~into:cells.(k.k_win) c)
    (all_cells t);
  let total tbl =
    List.fold_left
      (fun acc (_, n) -> acc + n)
      0
      (sorted_pairs tbl String.compare)
  in
  Array.mapi
    (fun w c ->
      {
        a_win = w;
        a_start_ns = Wclock.start_of t.clock w;
        a_width_ns = Wclock.width_at t.clock ~t_end:te w;
        a_offered = c.offered;
        a_admitted = c.admitted;
        a_committed = c.committed;
        a_aborted = total c.aborted;
        a_shed = total c.sheds;
        a_lat = c.lat;
        a_q_mean = q_mean c;
      })
    cells

(* --- Export ----------------------------------------------------------- *)

let fnum v = if Float.is_finite v then Printf.sprintf "%.6g" v else "null"

(* Key components must survive a flat dot-joined namespace: anything
   outside [A-Za-z0-9_-] (spaces in resource names, dots) maps to '_'. *)
let sanitize s =
  String.map
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> ch
      | _ -> '_')
    s

let to_json t ~id ~description =
  let te = t_end t in
  let fields = ref [] in
  let put k v = fields := (k, v) :: !fields in
  put "window_ns" (fnum (window_ns t));
  put "windows" (string_of_int (n_windows t));
  put "t0_ns" (fnum (t0 t));
  put "t_end_ns" (fnum te);
  List.iter
    (fun s ->
      let base =
        Printf.sprintf "w%d.%s.n%d.p%d.%s" s.win (sanitize s.stack) s.node
          s.part (sanitize s.label)
      in
      let puti field v =
        if v <> 0 then put (base ^ "." ^ field) (string_of_int v)
      in
      puti "offered" s.s_offered;
      puti "admitted" s.s_admitted;
      puti "committed" s.s_committed;
      List.iter
        (fun (r, n) -> puti ("aborted." ^ sanitize r) n)
        s.s_aborted;
      List.iter (fun (c, n) -> puti ("shed." ^ sanitize c) n) s.s_shed;
      if Histogram.count s.s_lat > 0 then begin
        puti "lat_n" (Histogram.count s.s_lat);
        put (base ^ ".lat_mean_ns") (fnum (Histogram.mean s.s_lat));
        put (base ^ ".lat_p50_ns") (fnum (Histogram.median s.s_lat));
        put (base ^ ".lat_p99_ns") (fnum (Histogram.p99 s.s_lat))
      end;
      if s.s_q_samples > 0 then begin
        puti "q_n" s.s_q_samples;
        put (base ^ ".q_mean") (fnum s.s_q_mean);
        puti "q_max" s.s_q_max
      end;
      List.iter
        (fun (r, a) -> put (base ^ ".occ." ^ sanitize r ^ "_ns") (fnum a))
        s.s_occ)
    (series t);
  let metrics =
    match List.rev !fields with
    | [] -> "{}"
    | fs ->
        Printf.sprintf "{\n%s\n  }"
          (String.concat ",\n"
             (List.map (fun (k, v) -> Printf.sprintf "    %S: %s" k v) fs))
  in
  Printf.sprintf
    "{\n  \"experiment\": %S,\n  \"description\": %S,\n  \"metrics\": %s\n}\n"
    id description metrics

(* OpenMetrics text exposition. One family at a time — metadata first,
   then every sample of that family — and a final "# EOF". *)

let om_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.contents buf

let om_labels s extra =
  String.concat ","
    (List.map
       (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (om_escape v))
       ([
          ("win", string_of_int s.win);
          ("stack", s.stack);
          ("node", string_of_int s.node);
          ("part", string_of_int s.part);
          ("cls", s.label);
        ]
       @ extra))

let to_openmetrics t =
  let ss = series t in
  let buf = Buffer.create 4096 in
  let family ~name ~kind ~help emit =
    let samples = Buffer.create 256 in
    List.iter (emit samples) ss;
    if Buffer.length samples > 0 then begin
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind);
      Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_buffer buf samples
    end
  in
  let counter ~name ~help value_of =
    family ~name ~kind:"counter" ~help (fun b s ->
        List.iter
          (fun (extra, v) ->
            if v <> 0 then
              Buffer.add_string b
                (Printf.sprintf "%s_total{%s} %d\n" name (om_labels s extra) v))
          (value_of s))
  in
  counter ~name:"xenic_txn_committed" ~help:"Committed transactions per window"
    (fun s -> [ ([], s.s_committed) ]);
  counter ~name:"xenic_txn_aborted"
    ~help:"Aborted transactions per window by reason" (fun s ->
      List.map (fun (r, n) -> ([ ("reason", r) ], n)) s.s_aborted);
  counter ~name:"xenic_offered" ~help:"Offered arrivals per window" (fun s ->
      [ ([], s.s_offered) ]);
  counter ~name:"xenic_admitted" ~help:"Admitted arrivals per window" (fun s ->
      [ ([], s.s_admitted) ]);
  counter ~name:"xenic_shed" ~help:"Shed arrivals per window by cause"
    (fun s -> List.map (fun (c, n) -> ([ ("cause", c) ], n)) s.s_shed);
  family ~name:"xenic_queue_depth" ~kind:"gauge"
    ~help:"Admission queue depth samples per window" (fun b s ->
      if s.s_q_samples > 0 then begin
        Buffer.add_string b
          (Printf.sprintf "xenic_queue_depth{%s} %s\n"
             (om_labels s [ ("stat", "mean") ])
             (fnum s.s_q_mean));
        Buffer.add_string b
          (Printf.sprintf "xenic_queue_depth{%s} %d\n"
             (om_labels s [ ("stat", "max") ])
             s.s_q_max)
      end);
  family ~name:"xenic_occupancy_busy_ns" ~kind:"counter"
    ~help:"Resource busy time integrated per window" (fun b s ->
      List.iter
        (fun (r, a) ->
          Buffer.add_string b
            (Printf.sprintf "xenic_occupancy_busy_ns_total{%s} %s\n"
               (om_labels s [ ("resource", r) ])
               (fnum a)))
        s.s_occ);
  family ~name:"xenic_latency_ns" ~kind:"summary"
    ~help:"Service latency per window" (fun b s ->
      if Histogram.count s.s_lat > 0 then begin
        List.iter
          (fun (q, v) ->
            Buffer.add_string b
              (Printf.sprintf "xenic_latency_ns{%s} %s\n"
                 (om_labels s [ ("quantile", q) ])
                 (fnum v)))
          [
            ("0.5", Histogram.median s.s_lat);
            ("0.99", Histogram.p99 s.s_lat);
          ];
        Buffer.add_string b
          (Printf.sprintf "xenic_latency_ns_sum{%s} %s\n" (om_labels s [])
             (fnum (Histogram.total s.s_lat)));
        Buffer.add_string b
          (Printf.sprintf "xenic_latency_ns_count{%s} %d\n" (om_labels s [])
             (Histogram.count s.s_lat))
      end);
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* --- OpenMetrics structural validation ------------------------------- *)

let is_name_char ch =
  match ch with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
  | _ -> false

let split_lines s = String.split_on_char '\n' s

let strip_suffix ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  if ls > lx && String.sub s (ls - lx) lx = suffix then
    Some (String.sub s 0 (ls - lx))
  else None

let validate_openmetrics text =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let lines = split_lines text in
  (* A well-formed exposition ends "# EOF\n": the final split element
     is the empty string after that newline. *)
  match List.rev lines with
  | "" :: "# EOF" :: _ ->
      let families = Hashtbl.create 16 in
      let resolve_family name =
        match Hashtbl.find_opt families name with
        | Some "gauge" | Some "unknown" -> Ok name
        | Some "summary" -> Ok name
        | Some kind -> err "%s: %s family sampled without suffix" name kind
        | None -> (
            match strip_suffix ~suffix:"_total" name with
            | Some base when Hashtbl.mem families base ->
                if Hashtbl.find families base = "counter" then Ok base
                else err "%s: _total sample of non-counter family" name
            | _ -> (
                let sum = strip_suffix ~suffix:"_sum" name in
                let cnt = strip_suffix ~suffix:"_count" name in
                match (sum, cnt) with
                | Some base, _ when Hashtbl.mem families base ->
                    if Hashtbl.find families base = "summary" then Ok base
                    else err "%s: _sum sample of non-summary family" name
                | _, Some base when Hashtbl.mem families base ->
                    if Hashtbl.find families base = "summary" then Ok base
                    else err "%s: _count sample of non-summary family" name
                | _ -> err "%s: sample before any TYPE metadata" name))
      in
      let check_sample line =
        let n = String.length line in
        let rec name_end i =
          if i < n && is_name_char line.[i] then name_end (i + 1) else i
        in
        let ne = name_end 0 in
        if ne = 0 then err "unparseable sample line: %s" line
        else
          let name = String.sub line 0 ne in
          let rest =
            if ne < n && line.[ne] = '{' then
              match String.index_from_opt line ne '}' with
              | None -> None
              | Some close ->
                  Some (String.sub line (close + 1) (n - close - 1))
            else Some (String.sub line ne (n - ne))
          in
          match rest with
          | None -> err "unterminated label set: %s" line
          | Some value_part -> (
              let value = String.trim value_part in
              match float_of_string_opt value with
              | None -> err "%s: non-numeric sample value %S" name value
              | Some _ -> (
                  match resolve_family name with
                  | Ok _ -> Ok ()
                  | Error e -> Error e))
      in
      let rec walk seen_eof = function
        | [] | [ "" ] -> Ok ()
        | line :: rest ->
            if seen_eof then err "content after # EOF: %s" line
            else if line = "# EOF" then walk true rest
            else if String.length line >= 7 && String.sub line 0 7 = "# TYPE "
            then (
              let meta = String.sub line 7 (String.length line - 7) in
              match String.index_opt meta ' ' with
              | None -> err "malformed TYPE line: %s" line
              | Some sp ->
                  let name = String.sub meta 0 sp in
                  let kind =
                    String.sub meta (sp + 1) (String.length meta - sp - 1)
                  in
                  if Hashtbl.mem families name then
                    err "%s: duplicate TYPE metadata" name
                  else begin
                    Hashtbl.replace families name kind;
                    walk false rest
                  end)
            else if String.length line >= 1 && line.[0] = '#' then
              walk false rest
            else (
              match check_sample line with
              | Ok () -> walk false rest
              | Error e -> Error e)
      in
      walk false lines
  | _ -> err "exposition does not end with '# EOF'"
