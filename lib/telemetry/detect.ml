(* Anomaly detectors over per-window rollups: pure functions, explicit
   thresholds, details that name the evidence. All rates are per
   simulated second and computed against the window's clipped width so
   a partial final window does not read as a load drop. *)

type verdict = { flagged : bool; detail : string }

(* Thresholds. Each detector reads one fixed setting; the unit tests
   and the [bench load] storm gates are calibrated against these. *)

(* retry_storm: a burst is offered > [storm_burst_factor] x the median;
   a post-burst window is degraded below [storm_collapse_frac] x the
   pre-burst goodput or above max [storm_min_backlog]
   ([storm_backlog_factor] x the pre-burst depth); [storm_sustain]
   degraded windows in a row flag. *)
let storm_burst_factor = 2.0

let storm_collapse_frac = 0.5

let storm_sustain = 3

let storm_backlog_factor = 4.0

let storm_min_backlog = 64.0

(* queue_growth: [growth_sustain]+ non-decreasing windows ending at
   least [growth_min_depth] deep and [growth_factor] x the start. *)
let growth_min_depth = 64.0

let growth_factor = 4.0

let growth_sustain = 4

(* littles_law: [littles_sustain]+ windows with residual above
   [littles_min_residual] and non-decreasing. *)
let littles_min_residual = 32.0

let littles_sustain = 3

(* slo_burn: flags a whole-run burn rate above [max_burn]. *)
let max_burn = 1.0

(* time_to_recovery: recovered once [recovery_sustain] windows in a row
   regain [recovery_frac] of the pre-fault committed rate. *)
let recovery_frac = 0.5

let recovery_sustain = 3

let clean detail = { flagged = false; detail }

let flag detail = { flagged = true; detail }

let rate count (a : Telemetry.agg) =
  if Float.compare a.Telemetry.a_width_ns 0.0 > 0 then
    float_of_int count /. (a.Telemetry.a_width_ns /. 1e9)
  else 0.0

let offered_rate (a : Telemetry.agg) = rate a.Telemetry.a_offered a

let committed_rate (a : Telemetry.agg) = rate a.Telemetry.a_committed a

let median_of xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted -> List.nth sorted (List.length sorted / 2)

let mean_of xs =
  match xs with
  | [] -> nan
  | _ ->
      List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Longest run of consecutive indices satisfying [p], scanning a
   sub-range; returns (start, length) of the first maximal run. *)
let longest_run p lo hi =
  let best = ref (lo, 0) and cur_start = ref lo and cur_len = ref 0 in
  for i = lo to hi do
    if p i then begin
      if !cur_len = 0 then cur_start := i;
      incr cur_len;
      if !cur_len > snd !best then best := (!cur_start, !cur_len)
    end
    else cur_len := 0
  done;
  !best

let retry_storm (aggs : Telemetry.agg array) =
  let n = Array.length aggs in
  if n < storm_sustain + 2 then clean "too few windows"
  else begin
    let off = Array.map offered_rate aggs in
    let med = median_of (Array.to_list off) in
    if Float.compare med 0.0 <= 0 then clean "no offered load"
    else begin
      let is_burst i = Float.compare off.(i) (storm_burst_factor *. med) > 0 in
      let first_burst = ref (-1) and last_burst = ref (-1) in
      Array.iteri
        (fun i _ ->
          if is_burst i then begin
            if !first_burst < 0 then first_burst := i;
            last_burst := i
          end)
        aggs;
      if !first_burst <= 0 then clean "no load burst (or burst at start)"
      else begin
        let pre_of f =
          mean_of
            (List.filteri (fun i _ -> i < !first_burst)
               (Array.to_list (Array.map f aggs)))
        in
        let pre = pre_of committed_rate in
        let pre_q = pre_of (fun a -> a.Telemetry.a_q_mean) in
        if Float.compare pre 0.0 <= 0 then clean "no pre-burst goodput"
        else begin
          (* Metastability = the degraded state outlives the trigger.
             A window counts as degraded if goodput stays collapsed OR
             the backlog (mean queue depth) stays far above its
             pre-burst level — an unbounded queue can serve stale work
             at full rate, which looks like healthy goodput while fresh
             arrivals wait behind the storm's leftovers. *)
          let q_bad =
            Float.max storm_min_backlog (storm_backlog_factor *. pre_q)
          in
          let collapsed = storm_collapse_frac *. pre in
          let degraded i =
            Float.compare (committed_rate aggs.(i)) collapsed < 0
            || Float.compare aggs.(i).Telemetry.a_q_mean q_bad > 0
          in
          let start, len = longest_run degraded (!last_burst + 1) (n - 1) in
          if len >= storm_sustain then
            flag
              (Printf.sprintf
                 "degraded state outlives burst: %d consecutive windows from \
                  w%d (goodput < %.3g tps or backlog > %.3g; pre-burst %.3g \
                  tps, depth %.3g); burst windows w%d..w%d"
                 len start collapsed q_bad pre pre_q !first_burst
                 !last_burst)
          else
            clean
              (Printf.sprintf
                 "recovered after burst w%d..w%d (longest degraded run %d < \
                  %d)"
                 !first_burst !last_burst len storm_sustain)
        end
      end
    end
  end

let queue_growth (aggs : Telemetry.agg array) =
  let n = Array.length aggs in
  if n < growth_sustain then clean "too few windows"
  else begin
    let q = Array.map (fun a -> a.Telemetry.a_q_mean) aggs in
    (* Longest non-decreasing run, tracked directly: [longest_run]'s
       per-index predicate cannot see the run start. *)
    let best_s = ref 0 and best_e = ref 0 in
    let cur_s = ref 0 in
    for i = 1 to n - 1 do
      if Float.compare q.(i) q.(i - 1) < 0 then cur_s := i;
      if i - !cur_s > !best_e - !best_s then begin
        best_s := !cur_s;
        best_e := i
      end
    done;
    let len = !best_e - !best_s + 1 in
    let q0 = Float.max q.(!best_s) 1.0 and q1 = q.(!best_e) in
    if
      len >= growth_sustain
      && Float.compare q1 growth_min_depth >= 0
      && Float.compare q1 (growth_factor *. q0) >= 0
    then
      flag
        (Printf.sprintf
           "queue depth grew %.3g -> %.3g over %d windows (w%d..w%d)"
           q.(!best_s) q1 len !best_s !best_e)
    else
      clean
        (Printf.sprintf "max depth %.3g, longest non-decreasing run %d"
           (Array.fold_left Float.max 0.0 q)
           len)
  end

let littles_law (aggs : Telemetry.agg array) =
  let n = Array.length aggs in
  if n < littles_sustain then clean "too few windows"
  else begin
    (* L - lambda * W: mean depth minus (arrival rate x mean sojourn),
       both measured on the window. Near zero when the system keeps up;
       growing positive when backlog accumulates unserved. *)
    let residual (a : Telemetry.agg) =
      let lam_per_ns =
        if Float.compare a.Telemetry.a_width_ns 0.0 > 0 then
          float_of_int a.Telemetry.a_admitted /. a.Telemetry.a_width_ns
        else 0.0
      in
      let w =
        let m = Xenic_stats.Histogram.mean a.Telemetry.a_lat in
        if Float.is_finite m then m else 0.0
      in
      a.Telemetry.a_q_mean -. (lam_per_ns *. w)
    in
    let r = Array.map residual aggs in
    let high_and_rising i =
      Float.compare r.(i) littles_min_residual > 0
      && (i = 0 || Float.compare r.(i) r.(i - 1) >= 0)
    in
    let start, len = longest_run high_and_rising 0 (n - 1) in
    if len >= littles_sustain then
      flag
        (Printf.sprintf
           "Little's-law residual diverging: %d windows from w%d, residual \
            %.3g -> %.3g"
           len start r.(start)
           r.(start + len - 1))
    else
      clean
        (Printf.sprintf "max residual %.3g, longest divergent run %d"
           (Array.fold_left Float.max neg_infinity r)
           len)
  end

type slo = { latency_ns : float; target : float }

let slo_burn slo (aggs : Telemetry.agg array) =
  if Float.compare slo.target 0.0 <= 0 || Float.compare slo.target 1.0 >= 0
  then invalid_arg "Detect.slo_burn: target must be in (0, 1)";
  let offered = ref 0 and bad = ref 0 in
  Array.iter
    (fun (a : Telemetry.agg) ->
      let within =
        Xenic_stats.Histogram.count_at_or_below a.Telemetry.a_lat slo.latency_ns
      in
      (* The latency shard mixes commit and abort service times; a
         request is "good" only if it both committed and fit the
         objective, so cap by the commit count. *)
      let good = min a.Telemetry.a_committed within in
      offered := !offered + a.Telemetry.a_offered;
      bad := !bad + max 0 (a.Telemetry.a_offered - good))
    aggs;
  if !offered = 0 then clean "no offered load"
  else begin
    let budget = 1.0 -. slo.target in
    let burn = float_of_int !bad /. float_of_int !offered /. budget in
    let detail =
      Printf.sprintf
        "burn %.3g (bad %d / offered %d, objective %.4g within %.3g us)" burn
        !bad !offered slo.target
        (slo.latency_ns /. 1e3)
    in
    if Float.compare burn max_burn > 0 then flag detail else clean detail
  end

let time_to_recovery ~after_ns ?(until_ns = infinity)
    (aggs : Telemetry.agg array) =
  let pre =
    Array.to_list aggs
    |> List.filter (fun (a : Telemetry.agg) ->
           Float.compare
             (a.Telemetry.a_start_ns +. a.Telemetry.a_width_ns)
             after_ns
           <= 0)
    |> List.map committed_rate
  in
  let baseline = mean_of pre in
  if not (Float.is_finite baseline) || Float.compare baseline 0.0 <= 0 then
    None
  else begin
    (* MTTR semantics: the window right after the fault is often still
       healthy (failure surfaces only once timeouts fire), so "first
       healthy window" would report an instant, meaningless recovery.
       Instead: recovery is the start of the first [recovery_sustain]-window
       healthy streak after the first degraded window — sustained
       health, tolerant of late single-window rate noise. Only full
       windows inside [after_ns, until_ns] are eligible: a partial tail
       window reads as a rate collapse that is really the run ending. *)
    let thr = recovery_frac *. baseline in
    let eligible =
      Array.of_list
        (Array.to_list aggs
        |> List.filter (fun (a : Telemetry.agg) ->
               Float.compare a.Telemetry.a_start_ns after_ns >= 0
               && Float.compare
                    (a.Telemetry.a_start_ns +. a.Telemetry.a_width_ns)
                    until_ns
                  <= 0))
    in
    let n = Array.length eligible in
    if n = 0 then None
    else begin
      let bad i = Float.compare (committed_rate eligible.(i)) thr < 0 in
      let first_bad = ref (-1) in
      for i = n - 1 downto 0 do
        if bad i then first_bad := i
      done;
      if !first_bad < 0 then
        (* never degraded: recovered as of the first observation *)
        Some (eligible.(0).Telemetry.a_start_ns -. after_ns)
      else begin
        let recovery = ref None and streak = ref 0 in
        for i = !first_bad + 1 to n - 1 do
          if bad i then streak := 0
          else begin
            incr streak;
            if !streak = recovery_sustain && Option.is_none !recovery then
              recovery :=
                Some
                  (eligible.(i - recovery_sustain + 1).Telemetry.a_start_ns
                 -. after_ns)
          end
        done;
        !recovery
      end
    end
  end

let all slo aggs =
  [
    ("retry-storm", retry_storm aggs);
    ("queue-growth", queue_growth aggs);
    ("littles-law", littles_law aggs);
    ("slo-burn", slo_burn slo aggs);
  ]
