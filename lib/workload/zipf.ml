type t = {
  n : int;
  theta : float;
  zetan : float;
  alpha : float;
  eta : float;
}

let zeta n theta =
  let sum = ref 0.0 in
  for i = 1 to n do
    sum := !sum +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !sum

(* Memoized zeta frontiers, one sorted point list per theta (keyed by
   the float's bits so distinct thetas never alias). A request for
   (n, theta) continues the partial sum from the largest memoized
   n0 <= n — the float additions performed for indices 1..n are then
   exactly the ones the naive loop performs, in the same order, so the
   cached zetan is bit-identical to [zeta n theta] while costing only
   O(n - n0). Callers own their cache (no module-level mutable state);
   a cache must not be shared across concurrently running domains. *)
type cache = (int64, (int * float) list ref) Hashtbl.t

let cache () : cache = Hashtbl.create 8

(* The frontier lists are immutable, so a copy shares them and owns
   only its table and refs. *)
let copy_cache (c : cache) : cache =
  let c' = Hashtbl.copy c in
  Hashtbl.filter_map_inplace (fun _ pts -> Some (ref !pts)) c';
  c'

let zeta_from ~n0 ~sum0 n theta =
  let sum = ref sum0 in
  for i = n0 + 1 to n do
    sum := !sum +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !sum

let zeta_cached c n theta =
  let key = Int64.bits_of_float theta in
  let pts =
    match Hashtbl.find_opt c key with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add c key r;
        r
  in
  (* Largest memoized prefix not past [n] (points are sorted by n). *)
  let rec best acc = function
    | (m, s) :: rest when m <= n -> best (Some (m, s)) rest
    | _ -> acc
  in
  match best None !pts with
  | Some (m, s) when m = n -> s
  | b ->
      let n0, sum0 = match b with Some p -> p | None -> (0, 0.0) in
      let z = zeta_from ~n0 ~sum0 n theta in
      let rec insert = function
        | (m, _) :: _ as rest when m > n -> (n, z) :: rest
        | p :: rest -> p :: insert rest
        | [] -> [ (n, z) ]
      in
      pts := insert !pts;
      z

let create ~n ~theta =
  if n <= 0 then invalid_arg "Zipf.create: n";
  if Float.compare theta 0.0 < 0 || Float.compare theta 1.0 >= 0 then
    invalid_arg "Zipf.create: theta";
  if Float.equal theta 0.0 then { n; theta; zetan = 0.0; alpha = 0.0; eta = 0.0 }
  else
    let zetan = zeta n theta in
    let zeta2 = zeta 2 theta in
    let alpha = 1.0 /. (1.0 -. theta) in
    let eta =
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
      /. (1.0 -. (zeta2 /. zetan))
    in
    { n; theta; zetan; alpha; eta }

let create_cached c ~n ~theta =
  if n <= 0 then invalid_arg "Zipf.create_cached: n";
  if Float.compare theta 0.0 < 0 || Float.compare theta 1.0 >= 0 then
    invalid_arg "Zipf.create_cached: theta";
  if Float.equal theta 0.0 then
    { n; theta; zetan = 0.0; alpha = 0.0; eta = 0.0 }
  else
    let zetan = zeta_cached c n theta in
    let zeta2 = zeta_cached c 2 theta in
    let alpha = 1.0 /. (1.0 -. theta) in
    let eta =
      (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
      /. (1.0 -. (zeta2 /. zetan))
    in
    { n; theta; zetan; alpha; eta }

let sample t rng =
  if Float.equal t.theta 0.0 then Xenic_sim.Rng.int rng t.n
  else begin
    let u = Xenic_sim.Rng.float rng in
    let uz = u *. t.zetan in
    if Float.compare uz 1.0 < 0 then 0
    else if Float.compare uz (1.0 +. Float.pow 0.5 t.theta) < 0 then 1
    else
      let v =
        float_of_int t.n
        *. Float.pow ((t.eta *. u) -. t.eta +. 1.0) t.alpha
      in
      let k = int_of_float v in
      if k >= t.n then t.n - 1 else if k < 0 then 0 else k
  end
