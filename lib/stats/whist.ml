(* Sparse twin of Histogram: a bucket -> count table instead of a dense
   array, for workloads that allocate many mostly-empty histograms (one
   per telemetry window per series). Bucket geometry is shared with
   Histogram so the two merge and compare losslessly. *)

(* Flat float state, as in Histogram. *)
type moments = {
  mutable total : float;
  mutable min_v : float;
  mutable max_v : float;
}

type t = {
  counts : (int, int) Hashtbl.t;
  mutable count : int;
  m : moments;
}

let create () =
  {
    counts = Hashtbl.create 8;
    count = 0;
    m = { total = 0.0; min_v = infinity; max_v = neg_infinity };
  }

let record_n t v n =
  if n > 0 then begin
    let i = Histogram.bucket_of_value v in
    Hashtbl.replace t.counts i
      (n + Option.value ~default:0 (Hashtbl.find_opt t.counts i));
    t.count <- t.count + n;
    t.m.total <- t.m.total +. (v *. float_of_int n);
    if Float.compare v t.m.min_v < 0 then t.m.min_v <- v;
    if Float.compare v t.m.max_v > 0 then t.m.max_v <- v
  end

let record t v = record_n t v 1

let count t = t.count

let total t = t.m.total

let mean t = if t.count = 0 then nan else t.m.total /. float_of_int t.count

(* Nonzero buckets in index order: the only traversal, so every query
   below is deterministic regardless of hash-table history. *)
let buckets t =
  Hashtbl.fold (fun i n acc -> (i, n) :: acc) t.counts []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let quantile t q =
  if t.count = 0 then nan
  else begin
    let rank = q *. float_of_int t.count in
    let rank = if Float.compare rank 1.0 < 0 then 1.0 else rank in
    let seen = ref 0 in
    let result = ref t.m.max_v in
    (try
       List.iter
         (fun (i, n) ->
           seen := !seen + n;
           if Float.compare (float_of_int !seen) rank >= 0 then begin
             result := Histogram.value_of_bucket i;
             raise Exit
           end)
         (buckets t)
     with Exit -> ());
    (* Clamp to observed extrema: bucket midpoints can overshoot. *)
    if Float.compare !result t.m.min_v < 0 then t.m.min_v
    else if Float.compare !result t.m.max_v > 0 then t.m.max_v
    else !result
  end

let median t = quantile t 0.5

let p99 t = quantile t 0.99

let count_at_or_below t v =
  let b = Histogram.bucket_of_value v in
  List.fold_left
    (fun acc (i, n) -> if i <= b then acc + n else acc)
    0 (buckets t)

let merge ~into src =
  List.iter (fun (i, n) ->
      Hashtbl.replace into.counts i
        (n + Option.value ~default:0 (Hashtbl.find_opt into.counts i)))
    (buckets src);
  into.count <- into.count + src.count;
  into.m.total <- into.m.total +. src.m.total;
  if Float.compare src.m.min_v into.m.min_v < 0 then into.m.min_v <- src.m.min_v;
  if Float.compare src.m.max_v into.m.max_v > 0 then into.m.max_v <- src.m.max_v
