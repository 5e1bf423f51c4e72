(* Tests for histograms, counters, and table rendering. *)

open Xenic_stats

let test_histogram_basics () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  Alcotest.(check (float 1e-6)) "mean" 3.0 (Histogram.mean h);
  Alcotest.(check (float 1e-6)) "min" 1.0 (Histogram.min_value h);
  Alcotest.(check (float 1e-6)) "max" 5.0 (Histogram.max_value h);
  Alcotest.(check (float 0.01)) "median" 3.0 (Histogram.median h)

let test_histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check bool) "nan median" true (Float.is_nan (Histogram.median h));
  Alcotest.(check int) "zero count" 0 (Histogram.count h)

let test_histogram_quantile_accuracy () =
  (* Uniform 0..10000: quantiles must land within the ~3% bucket
     relative error. *)
  let h = Histogram.create () in
  for i = 0 to 10_000 do
    Histogram.record h (float_of_int i)
  done;
  List.iter
    (fun q ->
      let expect = q *. 10_000.0 in
      let got = Histogram.quantile h q in
      let err = abs_float (got -. expect) /. (expect +. 1.0) in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f within 5%% (got %.0f want %.0f)" q got expect)
        true (err < 0.05))
    [ 0.1; 0.5; 0.9; 0.99 ]

let test_histogram_bucket_boundaries () =
  (* Values straddling the unit-bucket/octave boundary (32 = 2^sub_bits)
     and octave boundaries must all be recorded and keep quantiles
     monotone — a regression guard for off-by-one bucket indexing. *)
  let vals = [ 31.0; 32.0; 33.0; 63.0; 64.0; 65.0; 1023.0; 1024.0; 1025.0 ] in
  let h = Histogram.create () in
  List.iter (Histogram.record h) vals;
  Alcotest.(check int) "count" (List.length vals) (Histogram.count h);
  Alcotest.(check (float 1e-6))
    "total" (List.fold_left ( +. ) 0.0 vals) (Histogram.total h);
  Alcotest.(check (float 1e-6)) "min" 31.0 (Histogram.min_value h);
  Alcotest.(check (float 1e-6)) "max" 1025.0 (Histogram.max_value h);
  let qs = List.map (fun q -> Histogram.quantile h q) [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "quantiles monotone" true (monotone qs);
  (* Each recorded boundary value must be recoverable within the ~3%
     relative bucket width. *)
  List.iter
    (fun v ->
      let h1 = Histogram.create () in
      Histogram.record h1 v;
      let got = Histogram.median h1 in
      Alcotest.(check bool)
        (Printf.sprintf "value %.0f within bucket error (got %.1f)" v got)
        true
        (abs_float (got -. v) /. v < 0.04))
    vals

let test_histogram_quantile_clamp () =
  (* Quantiles must clamp to the observed min/max, never report a value
     outside the recorded range (bucket upper bounds overshoot). *)
  let h = Histogram.create () in
  Histogram.record h 1000.0;
  Histogram.record h 5000.0;
  Alcotest.(check bool) "q=0 >= min" true (Histogram.quantile h 0.0 >= 1000.0);
  Alcotest.(check bool) "q=1 <= max" true (Histogram.quantile h 1.0 <= 5000.0);
  let s = Histogram.create () in
  Histogram.record s 12_345.0;
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "single-sample q=%.2f" q)
        12_345.0 (Histogram.quantile s q))
    [ 0.0; 0.5; 0.99; 1.0 ]

let test_histogram_merge_bounds () =
  (* merge must carry count, total and the min/max clamps across. *)
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.record a) [ 50.0; 70.0 ];
  List.iter (Histogram.record b) [ 5.0; 900.0 ];
  Histogram.merge ~into:a b;
  Alcotest.(check int) "count" 4 (Histogram.count a);
  Alcotest.(check (float 1e-6)) "total" 1025.0 (Histogram.total a);
  Alcotest.(check (float 1e-6)) "min" 5.0 (Histogram.min_value a);
  Alcotest.(check (float 1e-6)) "max" 900.0 (Histogram.max_value a);
  Alcotest.(check bool) "q=1 <= max" true (Histogram.quantile a 1.0 <= 900.0);
  Alcotest.(check bool) "q=0 >= min" true (Histogram.quantile a 0.0 >= 5.0)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 10.0;
  Histogram.record b 20.0;
  Histogram.merge ~into:a b;
  Alcotest.(check int) "merged count" 2 (Histogram.count a);
  Alcotest.(check (float 1e-6)) "merged mean" 15.0 (Histogram.mean a)

let test_histogram_large_values_qcheck =
  QCheck.Test.make ~name:"histogram quantile within bucket error" ~count:100
    QCheck.(list_of_size (Gen.int_range 10 200) (float_range 1.0 1e9))
    (fun values ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) values;
      let sorted = List.sort compare values in
      let n = List.length sorted in
      let exact = List.nth sorted (n / 2) in
      let approx = Histogram.median h in
      (* Median must be within 4% of an actual sample neighbourhood. *)
      approx >= List.nth sorted 0 *. 0.96
      && approx <= List.nth sorted (n - 1) *. 1.04
      && (abs_float (approx -. exact) /. exact < 0.10
         || n < 20
         ||
         (* allow one rank of slack *)
         let lo = List.nth sorted (max 0 ((n / 2) - 2)) in
         let hi = List.nth sorted (min (n - 1) ((n / 2) + 2)) in
         approx >= lo *. 0.96 && approx <= hi *. 1.04))

(* A dense reference: one count per bucket over the whole value range,
   with the bucket geometry restated from its definition (unit buckets
   below 32, then 32 linear sub-buckets per octave) and looked up by
   binary search over bucket lower bounds. *)
module Dense = struct
  let n_buckets = 32 * 58

  let lower i = if i < 32 then i else (32 + (i mod 32)) lsl ((i / 32) - 1)

  let bucket v =
    let v = if v < 0.0 then 0 else int_of_float v in
    let lo = ref 0 and hi = ref (n_buckets - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if lower mid <= v then lo := mid else hi := mid - 1
    done;
    !lo

  let midpoint i =
    if i < 32 then float_of_int i
    else float_of_int (lower i) +. (float_of_int (1 lsl ((i / 32) - 1)) /. 2.0)

  type t = {
    counts : int array;
    mutable n : int;
    mutable total : float;
    mutable min_v : float;
    mutable max_v : float;
  }

  let create () =
    {
      counts = Array.make n_buckets 0;
      n = 0;
      total = 0.0;
      min_v = infinity;
      max_v = neg_infinity;
    }

  let record_n t v k =
    let i = bucket v in
    t.counts.(i) <- t.counts.(i) + k;
    t.n <- t.n + k;
    t.total <- t.total +. (v *. float_of_int k);
    t.min_v <- Float.min t.min_v v;
    t.max_v <- Float.max t.max_v v

  let quantile t q =
    if t.n = 0 then nan
    else begin
      let rank = Float.max 1.0 (q *. float_of_int t.n) in
      let i = ref 0 and seen = ref t.counts.(0) in
      while float_of_int !seen < rank do
        incr i;
        seen := !seen + t.counts.(!i)
      done;
      Float.min t.max_v (Float.max t.min_v (midpoint !i))
    end

  let buckets t =
    List.filter
      (fun (_, n) -> n > 0)
      (List.init n_buckets (fun i -> (i, t.counts.(i))))

  let count_at_or_below t v =
    let b = bucket v in
    let n = ref 0 in
    for i = 0 to b do
      n := !n + t.counts.(i)
    done;
    !n

  let merge ~into src =
    Array.iteri (fun i n -> into.counts.(i) <- into.counts.(i) + n) src.counts;
    into.n <- into.n + src.n;
    into.total <- into.total +. src.total;
    into.min_v <- Float.min into.min_v src.min_v;
    into.max_v <- Float.max into.max_v src.max_v

  let clear t =
    Array.fill t.counts 0 n_buckets 0;
    t.n <- 0;
    t.total <- 0.0;
    t.min_v <- infinity;
    t.max_v <- neg_infinity
end

let probes = [ 0.0; 1.0; 31.0; 32.0; 1_000.0; 7.5e4; 2.0e6; 1e9; 1e15 ]

let check_matches name h d =
  let tag s = name ^ ": " ^ s in
  Alcotest.(check int) (tag "count") d.Dense.n (Histogram.count h);
  Alcotest.(check (float 0.0)) (tag "total") d.Dense.total (Histogram.total h);
  List.iter
    (fun q ->
      let want = Dense.quantile d q and got = Histogram.quantile h q in
      if not (Float.is_nan want && Float.is_nan got) then
        Alcotest.(check (float 0.0))
          (tag (Printf.sprintf "quantile %g" q))
          want got)
    [ 0.0; 0.5; 0.99; 1.0 ];
  Alcotest.(check (list (pair int int))) (tag "buckets") (Dense.buckets d)
    (Histogram.buckets h);
  List.iter
    (fun v ->
      Alcotest.(check int)
        (tag (Printf.sprintf "count_at_or_below %g" v))
        (Dense.count_at_or_below d v)
        (Histogram.count_at_or_below h v))
    probes

(* Values spread over many octaves, small integers included. *)
let sample st =
  match Random.State.int st 4 with
  | 0 -> float_of_int (Random.State.int st 40)
  | 1 -> Random.State.float st 5_000.0
  | 2 -> 1e4 +. Random.State.float st 1e6
  | _ -> Random.State.float st (10.0 ** float_of_int (Random.State.int st 16))

let fill st h d ~n =
  for _ = 1 to n do
    let v = sample st in
    if Random.State.int st 5 = 0 then begin
      let k = 1 + Random.State.int st 4 in
      Histogram.record_n h v k;
      Dense.record_n d v k
    end
    else begin
      Histogram.record h v;
      Dense.record_n d v 1
    end
  done

let test_histogram_matches_dense () =
  for seed = 1 to 20 do
    let st = Random.State.make [| seed |] in
    let h = Histogram.create () and d = Dense.create () in
    fill st h d ~n:(1 + Random.State.int st 300);
    check_matches (Printf.sprintf "seed %d" seed) h d;
    (* A cleared histogram is empty, then records afresh. *)
    Histogram.clear h;
    Dense.clear d;
    check_matches (Printf.sprintf "seed %d cleared" seed) h d;
    fill st h d ~n:(1 + Random.State.int st 50);
    check_matches (Printf.sprintf "seed %d reused" seed) h d
  done

let test_histogram_merge_ranges () =
  let build values =
    let h = Histogram.create () and d = Dense.create () in
    List.iter
      (fun v ->
        Histogram.record h v;
        Dense.record_n d v 1)
      values;
    (h, d)
  in
  let cleared values =
    let h, d = build values in
    Histogram.clear h;
    Dense.clear d;
    (h, d)
  in
  let low = [ 3.0; 12.0; 40.0 ]
  and mid = [ 30.0; 900.0; 5_000.0 ]
  and high = [ 2.0e8; 7.0e9 ] in
  let cases =
    [
      ("disjoint", (fun () -> build low), fun () -> build high);
      ("overlapping", (fun () -> build low), fun () -> build mid);
      ("empty", (fun () -> build mid), fun () -> build []);
      ("cleared", (fun () -> build mid), fun () -> cleared high);
      ("both empty", (fun () -> build []), fun () -> build []);
    ]
  in
  List.iter
    (fun (name, mk_a, mk_b) ->
      (* Both directions: each side must end up covering the union. *)
      List.iter
        (fun (dir, (into_h, into_d), (src_h, src_d)) ->
          Histogram.merge ~into:into_h src_h;
          Dense.merge ~into:into_d src_d;
          check_matches (name ^ " " ^ dir) into_h into_d;
          (* The source is left untouched. *)
          check_matches (name ^ " " ^ dir ^ " source") src_h src_d)
        [ ("a<-b", mk_a (), mk_b ()); ("b<-a", mk_b (), mk_a ()) ])
    cases

let test_counter () =
  let c = Counter.create () in
  Counter.incr c "msgs";
  Counter.add c "msgs" 4;
  Counter.addf c "bytes" 0.5;
  Alcotest.(check (float 1e-9)) "msgs" 5.0 (Counter.get c "msgs");
  Alcotest.(check (float 1e-9)) "bytes" 0.5 (Counter.get c "bytes");
  Alcotest.(check (float 1e-9)) "absent" 0.0 (Counter.get c "nope");
  Alcotest.(check int) "list" 2 (List.length (Counter.to_list c));
  Counter.reset c;
  Alcotest.(check (float 1e-9)) "after reset" 0.0 (Counter.get c "msgs")

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_table_render () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  Alcotest.(check bool) "contains row" true (contains ~sub:"333" s);
  Alcotest.(check bool) "contains header" true (contains ~sub:"bb" s)

let test_table_arity () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "only-one" ])

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "xenic_stats"
    [
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_histogram_basics;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "quantiles" `Quick test_histogram_quantile_accuracy;
          Alcotest.test_case "bucket boundaries" `Quick
            test_histogram_bucket_boundaries;
          Alcotest.test_case "quantile clamp" `Quick
            test_histogram_quantile_clamp;
          Alcotest.test_case "merge bounds" `Quick test_histogram_merge_bounds;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          qt test_histogram_large_values_qcheck;
        ] );
      ( "histogram reference",
        [
          Alcotest.test_case "matches dense counts" `Quick
            test_histogram_matches_dense;
          Alcotest.test_case "merge ranges" `Quick test_histogram_merge_ranges;
        ] );
      ("counter", [ Alcotest.test_case "basics" `Quick test_counter ]);
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity;
        ] );
    ]
