open Xenic_sim

type cell = {
  c_ctx : Attrib.ctx;
  c_wait_ns : float;
  c_waits : int;
  c_service_ns : float;
  c_services : int;
}

type row = {
  r_label : string;
  r_servers : int;
  r_busy_ns : float;
  r_utilization : float;
  r_service_ns : float;
  r_wait_ns : float;
  r_acquires : int;
  r_mean_wait_ns : float;
  r_queue_area : float;
  r_mean_qlen : float;
  r_cells : cell list;
}

type seg = { s_name : string; s_dur_ns : float }

type path = {
  p_node : int;
  p_seq : int;
  p_cls : string;
  p_start_ns : float;
  p_dur_ns : float;
  p_segs : seg list;
}

type t = {
  stack : string;
  elapsed_ns : float;
  rows : row list;
  paths : path list;
}

(* label -> (busy_ns, queue_area) at snapshot time *)
type baseline = (string * (float * float)) list

let baseline resources =
  List.map
    (fun (label, r) -> (label, (Resource.busy_time r, Resource.queue_area r)))
    resources

(* ------------------------------------------------------------------ *)
(* Collection *)

let row_of ~baseline ~elapsed_ns (label, r) =
  let b_busy, b_area =
    match List.assoc_opt label baseline with
    | Some (b, a) -> (b, a)
    | None -> (0.0, 0.0)
  in
  let busy = Resource.busy_time r -. b_busy in
  let area = Resource.queue_area r -. b_area in
  let cells =
    List.map
      (fun (ctx, (v : Resource.stat_view)) ->
        {
          c_ctx = ctx;
          c_wait_ns = v.Resource.v_wait_ns;
          c_waits = v.Resource.v_waits;
          c_service_ns = v.Resource.v_service_ns;
          c_services = v.Resource.v_services;
        })
      (Resource.stats r)
  in
  let sum f = List.fold_left (fun acc c -> acc +. f c) 0.0 cells in
  let sumi f = List.fold_left (fun acc c -> acc + f c) 0 cells in
  let wait = sum (fun c -> c.c_wait_ns) in
  let acquires = sumi (fun c -> c.c_waits) in
  let servers = Resource.servers r in
  {
    r_label = label;
    r_servers = servers;
    r_busy_ns = busy;
    r_utilization =
      (if Float.compare elapsed_ns 0.0 <= 0 then 0.0
       else busy /. (float_of_int servers *. elapsed_ns));
    r_service_ns = sum (fun c -> c.c_service_ns);
    r_wait_ns = wait;
    r_acquires = acquires;
    r_mean_wait_ns = (if acquires = 0 then 0.0 else wait /. float_of_int acquires);
    r_queue_area = area;
    r_mean_qlen =
      (if Float.compare elapsed_ns 0.0 <= 0 then 0.0 else area /. elapsed_ns);
    r_cells = cells;
  }

(* Slice a committed transaction's outer span into its recorded phase
   spans plus "other" gaps. Spans are closed at phase end, so sorting by
   start time walks them in protocol order; overlap (never produced by
   the protocol layer, but cheap to tolerate) is clipped so segments
   always partition the outer duration exactly. *)
let segs_of ~t_start ~t_end phase_spans =
  let spans =
    List.sort
      (fun (ts1, _, _) (ts2, _, _) -> Float.compare ts1 ts2)
      phase_spans
  in
  let eps = 1e-9 in
  let rec walk cur acc = function
    | [] ->
        let acc =
          if Float.compare (t_end -. cur) eps > 0 then
            { s_name = "other"; s_dur_ns = t_end -. cur } :: acc
          else acc
        in
        List.rev acc
    | (ts, dur, name) :: rest ->
        let ts = Float.max ts cur in
        let fin = Float.min (ts +. dur) t_end in
        let acc =
          if Float.compare (ts -. cur) eps > 0 then
            { s_name = "other"; s_dur_ns = ts -. cur } :: acc
          else acc
        in
        let acc =
          if Float.compare (fin -. ts) eps > 0 then
            { s_name = name; s_dur_ns = fin -. ts } :: acc
          else acc
        in
        walk (Float.max cur fin) acc rest
  in
  walk t_start [] spans

let extract_paths trace =
  (* Outer transaction spans keyed by (node, committed-attempt seq);
     phase spans (cat "txn") with the same key and inside the outer
     bounds slice it. Asynchronous commit-apply spans use a different
     category ("txn-async") precisely so they are excluded here. *)
  let outers = ref [] in
  let phases = Hashtbl.create 256 in
  List.iter
    (function
      | Trace.Span { cat = "txnlat"; pid; tid; ts; dur; args; _ } ->
          let cls =
            match List.assoc_opt "cls" args with Some c -> c | None -> "-"
          in
          outers := (pid, tid, ts, dur, cls) :: !outers
      | Trace.Span { cat = "txn"; name; pid; tid; ts; dur; _ } ->
          Hashtbl.replace phases (pid, tid)
            ((ts, dur, name)
            :: Option.value ~default:[] (Hashtbl.find_opt phases (pid, tid)))
      | _ -> ())
    (Trace.events trace);
  !outers
  |> List.rev_map (fun (pid, tid, ts, dur, cls) ->
         let inside =
           Option.value ~default:[] (Hashtbl.find_opt phases (pid, tid))
           |> List.filter (fun (pts, pdur, _) ->
                  Float.compare pts (ts -. 1e-9) >= 0
                  && Float.compare (pts +. pdur) (ts +. dur +. 1e-9) <= 0)
         in
         {
           p_node = pid;
           p_seq = tid;
           p_cls = cls;
           p_start_ns = ts;
           p_dur_ns = dur;
           p_segs = segs_of ~t_start:ts ~t_end:(ts +. dur) inside;
         })
  |> List.sort (fun a b ->
         let c = Float.compare a.p_start_ns b.p_start_ns in
         if c <> 0 then c
         else
           let c = Int.compare a.p_node b.p_node in
           if c <> 0 then c else Int.compare a.p_seq b.p_seq)

let collect ~stack ~resources ?(baseline = []) ?trace ~elapsed_ns () =
  let rows =
    List.map (row_of ~baseline ~elapsed_ns) resources
    |> List.filter (fun r ->
           Float.compare r.r_busy_ns 0.0 > 0 || r.r_acquires > 0)
    |> List.sort (fun a b ->
           let c = Float.compare b.r_utilization a.r_utilization in
           if c <> 0 then c else String.compare a.r_label b.r_label)
  in
  let paths = match trace with None -> [] | Some tr -> extract_paths tr in
  { stack; elapsed_ns; rows; paths }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let known_phases =
  [ "execute"; "exec-fn"; "validate"; "log"; "commit"; "commit-async";
    "dispatch"; "log-apply" ]

let ms ns = ns /. 1e6

let us ns = ns /. 1e3

let bottleneck_table t =
  let tbl =
    Xenic_stats.Table.create
      ~title:(Printf.sprintf "%s -- resource bottlenecks" t.stack)
      ~columns:
        [ "resource"; "srv"; "util%"; "busy ms"; "svc ms"; "wait ms";
          "grants"; "mwait us"; "qlen" ]
  in
  List.iter
    (fun r ->
      Xenic_stats.Table.add_row tbl
        [
          r.r_label;
          string_of_int r.r_servers;
          Xenic_stats.Table.cellf ~decimals:1 (100.0 *. r.r_utilization);
          Xenic_stats.Table.cellf ~decimals:3 (ms r.r_busy_ns);
          Xenic_stats.Table.cellf ~decimals:3 (ms r.r_service_ns);
          Xenic_stats.Table.cellf ~decimals:3 (ms r.r_wait_ns);
          string_of_int r.r_acquires;
          Xenic_stats.Table.cellf ~decimals:2 (us r.r_mean_wait_ns);
          Xenic_stats.Table.cellf ~decimals:3 r.r_mean_qlen;
        ])
    t.rows;
  Xenic_stats.Table.render tbl

let phase_matrix t =
  let tbl =
    Xenic_stats.Table.create
      ~title:(Printf.sprintf "%s -- service ms by resource x phase" t.stack)
      ~columns:("resource" :: (known_phases @ [ "other" ]))
  in
  List.iter
    (fun r ->
      let by_phase phase =
        List.fold_left
          (fun acc c ->
            if String.equal c.c_ctx.Attrib.phase phase then
              acc +. c.c_service_ns
            else acc)
          0.0 r.r_cells
      in
      let other =
        List.fold_left
          (fun acc c ->
            if List.mem c.c_ctx.Attrib.phase known_phases then acc
            else acc +. c.c_service_ns)
          0.0 r.r_cells
      in
      Xenic_stats.Table.add_row tbl
        (r.r_label
        :: (List.map
              (fun p -> Xenic_stats.Table.cellf ~decimals:3 (ms (by_phase p)))
              known_phases
           @ [ Xenic_stats.Table.cellf ~decimals:3 (ms other) ])))
    t.rows;
  Xenic_stats.Table.render tbl

(* Group critical paths by (class, phase-name signature); report the
   heaviest shapes with mean per-segment time. *)
let path_groups t =
  let key p = (p.p_cls, List.map (fun s -> s.s_name) p.p_segs) in
  let groups = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let k = key p in
      let count, total, segs =
        Option.value ~default:(0, 0.0, List.map (fun _ -> 0.0) p.p_segs)
          (Hashtbl.find_opt groups k)
      in
      Hashtbl.replace groups k
        ( count + 1,
          total +. p.p_dur_ns,
          List.map2 (fun acc s -> acc +. s.s_dur_ns) segs p.p_segs ))
    t.paths;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) groups []
  |> List.sort (fun ((cls1, sig1), (_, tot1, _)) ((cls2, sig2), (_, tot2, _)) ->
         let c = Float.compare tot2 tot1 in
         if c <> 0 then c
         else
           let c = String.compare cls1 cls2 in
           if c <> 0 then c else List.compare String.compare sig1 sig2)

(* Critical-path shapes the report lists; the rest are counted. *)
let top_k = 5

let critical_paths t =
  if t.paths = [] then "  (no critical paths: run without a trace)\n"
  else begin
    let buf = Buffer.create 1024 in
    let total_ns =
      List.fold_left (fun acc p -> acc +. p.p_dur_ns) 0.0 t.paths
    in
    Buffer.add_string buf
      (Printf.sprintf
         "%s -- top critical paths (%d committed txns, %.3f ms total)\n"
         t.stack (List.length t.paths) (ms total_ns));
    let groups = path_groups t in
    List.iteri
      (fun i ((cls, names), (count, total, seg_sums)) ->
        if i < top_k then begin
          Buffer.add_string buf
            (Printf.sprintf "  #%d %s x%d: %.3f ms total, %.2f us mean\n"
               (i + 1) cls count (ms total)
               (us (total /. float_of_int count)));
          List.iter2
            (fun name sum ->
              Buffer.add_string buf
                (Printf.sprintf "      %-12s %8.2f us mean\n" name
                   (us (sum /. float_of_int count))))
            names seg_sums
        end)
      groups;
    let shown = min top_k (List.length groups) in
    if List.length groups > shown then
      Buffer.add_string buf
        (Printf.sprintf "  (%d further path shapes omitted)\n"
           (List.length groups - shown));
    Buffer.contents buf
  end

let report t =
  String.concat "\n"
    [
      Printf.sprintf "== Profile: %s (%.3f ms measured) ==" t.stack
        (ms t.elapsed_ns);
      bottleneck_table t;
      phase_matrix t;
      critical_paths t;
    ]

let folded t =
  let lines = ref [] in
  let add ctx label kind ns =
    let w = int_of_float (Float.round ns) in
    if w > 0 then
      lines :=
        Printf.sprintf "%s;n%d;%s;%s;%s;%s %d" t.stack ctx.Attrib.node
          ctx.Attrib.cls ctx.Attrib.phase label kind w
        :: !lines
  in
  List.iter
    (fun r ->
      List.iter
        (fun c ->
          add c.c_ctx r.r_label "service" c.c_service_ns;
          add c.c_ctx r.r_label "wait" c.c_wait_ns)
        r.r_cells)
    t.rows;
  String.concat "\n" (List.sort String.compare !lines) ^ "\n"

let busy_agreement t =
  List.map (fun r -> (r.r_label, r.r_busy_ns, r.r_service_ns)) t.rows

let little_check t =
  List.map (fun r -> (r.r_label, r.r_queue_area, r.r_wait_ns)) t.rows

let other_share t =
  let is_other s = String.equal s.s_name "other" in
  let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs in
  let other_ns s = if is_other s then s.s_dur_ns else 0.0 in
  let other = sum (fun p -> sum other_ns p.p_segs) t.paths in
  let total = sum (fun p -> p.p_dur_ns) t.paths in
  let blind = List.filter (fun p -> List.for_all is_other p.p_segs) t.paths in
  ( (if Float.compare total 0.0 > 0 then other /. total else 0.0),
    List.length blind )
