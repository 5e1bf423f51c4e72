(* Buckets: values are bucketed by octave (power of two) with
   [sub_buckets] linear sub-buckets per octave, giving a bounded relative
   error of 1/sub_buckets. Values below [sub_buckets] land in dedicated
   unit-width buckets, so small integer values are exact. *)

let sub_bits = 5

let sub_buckets = 1 lsl sub_bits

let octaves = 57

let n_buckets = sub_buckets * (octaves + 1)

(* The float state is an all-float record, which OCaml stores flat, so
   [record] updates it in place instead of boxing a new total. *)
type moments = {
  mutable total : float;
  mutable min_v : float;
  mutable max_v : float;
}

(* Counts are stored only for the occupied bucket range: [counts.(j)]
   is bucket [lo + j]. Latencies cluster in a few octaves, so a run's
   histograms (and the one per telemetry cell) hold tens of buckets,
   not all [n_buckets]. *)
type t = {
  mutable lo : int;
  mutable counts : int array;
  mutable count : int;
  m : moments;
}

let create () =
  {
    lo = 0;
    counts = [||];
    count = 0;
    m = { total = 0.0; min_v = infinity; max_v = neg_infinity };
  }

let bucket_of_value v =
  let v = if Float.compare v 0.0 < 0 then 0 else int_of_float v in
  if v < sub_buckets then v
  else begin
    (* Octave index: position of the highest set bit above sub_bits. *)
    let octave = ref 0 in
    let x = ref (v lsr sub_bits) in
    while !x > 0 do
      incr octave;
      x := !x lsr 1
    done;
    let shift = !octave - 1 in
    let sub = (v lsr shift) - sub_buckets in
    let i = (sub_buckets * !octave) + sub in
    if i >= n_buckets then n_buckets - 1 else i
  end

let value_of_bucket i =
  if i < sub_buckets then float_of_int i
  else begin
    let octave = i / sub_buckets in
    let sub = i mod sub_buckets in
    let shift = octave - 1 in
    (* Midpoint of the bucket's value range. *)
    let lo = (sub_buckets + sub) lsl shift in
    let width = 1 lsl shift in
    float_of_int lo +. (float_of_int width /. 2.0)
  end

let initial_len = 16

(* Widen the range to cover buckets [a, b]. The new length at least
   doubles, so a histogram that keeps growing copies amortised O(1)
   counts per record. The slack goes on the side being extended, or
   around the first sample. *)
let cover t a b =
  let len = Array.length t.counts in
  if len = 0 || a < t.lo || b >= t.lo + len then begin
    let need_lo, need_hi =
      if len = 0 then (a, b + 1) else (min a t.lo, max (b + 1) (t.lo + len))
    in
    let span = need_hi - need_lo in
    let new_len = min n_buckets (max span (max initial_len (2 * len))) in
    let slack = new_len - span in
    let new_lo =
      if len = 0 then need_lo - (slack / 2)
      else if a < t.lo then need_lo - slack
      else need_lo
    in
    let new_lo = max 0 (min new_lo (n_buckets - new_len)) in
    let counts = Array.make new_len 0 in
    if len > 0 then Array.blit t.counts 0 counts (t.lo - new_lo) len;
    t.lo <- new_lo;
    t.counts <- counts
  end

let record_n t v n =
  if n > 0 then begin
    let i = bucket_of_value v in
    cover t i i;
    let j = i - t.lo in
    t.counts.(j) <- t.counts.(j) + n;
    t.count <- t.count + n;
    t.m.total <- t.m.total +. (v *. float_of_int n);
    if v < t.m.min_v then t.m.min_v <- v;
    if v > t.m.max_v then t.m.max_v <- v
  end

let record t v = record_n t v 1

let count t = t.count

let total t = t.m.total

let mean t = if t.count = 0 then nan else t.m.total /. float_of_int t.count

let min_value t = if t.count = 0 then nan else t.m.min_v

let max_value t = if t.count = 0 then nan else t.m.max_v

let quantile t q =
  if t.count = 0 then nan
  else begin
    let rank = q *. float_of_int t.count in
    let rank = if Float.compare rank 1.0 < 0 then 1.0 else rank in
    let seen = ref 0 in
    let result = ref t.m.max_v in
    (try
       Array.iteri
         (fun j n ->
           seen := !seen + n;
           if Float.compare (float_of_int !seen) rank >= 0 then begin
             result := value_of_bucket (t.lo + j);
             raise Exit
           end)
         t.counts
     with Exit -> ());
    (* Clamp to observed extrema: bucket midpoints can overshoot. *)
    if !result < t.m.min_v then t.m.min_v
    else if !result > t.m.max_v then t.m.max_v
    else !result
  end

let median t = quantile t 0.5

let p99 t = quantile t 0.99

let buckets t =
  let acc = ref [] in
  for j = Array.length t.counts - 1 downto 0 do
    if t.counts.(j) > 0 then acc := (t.lo + j, t.counts.(j)) :: !acc
  done;
  !acc

let count_at_or_below t v =
  let last = min (bucket_of_value v - t.lo) (Array.length t.counts - 1) in
  let n = ref 0 in
  for j = 0 to last do
    n := !n + t.counts.(j)
  done;
  !n

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.count <- 0;
  t.m.total <- 0.0;
  t.m.min_v <- infinity;
  t.m.max_v <- neg_infinity

let merge ~into src =
  (* Cover only [src]'s nonzero extent: a cleared source keeps its
     all-zero range, which must not widen [into]. *)
  let n = Array.length src.counts in
  let first = ref 0 and last = ref (n - 1) in
  while !first < n && src.counts.(!first) = 0 do
    incr first
  done;
  while !last > !first && src.counts.(!last) = 0 do
    decr last
  done;
  if !first < n then begin
    cover into (src.lo + !first) (src.lo + !last);
    for j = !first to !last do
      let i = src.lo + j - into.lo in
      into.counts.(i) <- into.counts.(i) + src.counts.(j)
    done
  end;
  into.count <- into.count + src.count;
  into.m.total <- into.m.total +. src.m.total;
  if src.m.min_v < into.m.min_v then into.m.min_v <- src.m.min_v;
  if src.m.max_v > into.m.max_v then into.m.max_v <- src.m.max_v
