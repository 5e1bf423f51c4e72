(* Index entries stay individual records: a handler may hold one across
   a suspending [io] call and must see later updates to it. Everything
   around them is flat: entries sit in an open-addressing table keyed by
   int, and the eviction FIFO is an int ring buffer. *)
type 'v entry = {
  key : int;
  mutable lock : int;  (* owner, or [unlocked] *)
  mutable seq : int;
  mutable value : 'v option;
  mutable pins : int;
  mutable present : bool;
}

let unlocked = min_int

type io = {
  nic_mem : unit -> unit;
  dma_read : slots:int -> bytes:int -> unit;
}

let free_io = { nic_mem = (fun () -> ()); dma_read = (fun ~slots:_ ~bytes:_ -> ()) }

type 'v t = {
  host : 'v Robinhood.t;
  (* Linear probing over a power-of-two array, at most 3/4 full;
     [vacant] marks empty slots. *)
  mutable slots : 'v entry array;
  mutable n_entries : int;
  vacant : 'v entry;
  hints : int array;  (* max displacement per hint group of home slots *)
  cache_capacity : int;
  (* Eviction FIFO of keys: [ring_len] keys from [ring_head], circular. *)
  mutable ring : int array;
  mutable ring_head : int;
  mutable ring_len : int;
  mutable n_cached : int;
  mutable hits : int;
  mutable misses : int;
}

let rec pow2_at_least n = if n <= 1 then 1 else 2 * pow2_at_least ((n + 1) / 2)

(* The k of §4.1.3: a first read covers displacements [0, hint + k),
   so k = 1 reaches exactly the furthest displacement the hint knows. *)
let slack = 1

(* Home slots covered by one dᵢ hint: finer hints read fewer slots per
   lookup at a NIC-memory cost. *)
let hint_slots = 4

let create ~host ~cache_capacity () =
  let groups = ((Robinhood.capacity host + hint_slots - 1) / hint_slots) + 1 in
  let vacant =
    { key = 0; lock = unlocked; seq = 0; value = None; pins = 0; present = false }
  in
  {
    host;
    (* Sized so a full cache stays under the 3/4 load limit. *)
    slots = Array.make (max 16 (pow2_at_least ((cache_capacity * 4 / 3) + 1))) vacant;
    n_entries = 0;
    vacant;
    hints = Array.make groups 0;
    cache_capacity;
    ring = Array.make (max 16 cache_capacity) 0;
    ring_head = 0;
    ring_len = 0;
    n_cached = 0;
    hits = 0;
    misses = 0;
  }

(* ------------------------------------------------------------------ *)
(* Entry table *)

let home_slot t k = Kv.Key.hash k land (Array.length t.slots - 1)

(* The probe loops below take the table, key and mask as arguments: a
   local loop closing over them would allocate a closure per call. *)
let rec find_from t k mask i =
  let e = t.slots.(i) in
  if e == t.vacant || e.key = k then e else find_from t k mask ((i + 1) land mask)

(* [k]'s entry, or [t.vacant]. *)
let find t k = find_from t k (Array.length t.slots - 1) (home_slot t k)

let rec place_from t e mask i =
  if t.slots.(i) == t.vacant then t.slots.(i) <- e
  else place_from t e mask ((i + 1) land mask)

let place t e = place_from t e (Array.length t.slots - 1) (home_slot t e.key)

(* Add an entry for an absent key, doubling the table past 3/4 load. *)
let add t k ~seq ~present =
  if (t.n_entries + 1) * 4 > Array.length t.slots * 3 then begin
    let old = t.slots in
    t.slots <- Array.make (2 * Array.length old) t.vacant;
    Array.iter (fun e -> if e != t.vacant then place t e) old
  end;
  let e = { key = k; lock = unlocked; seq; value = None; pins = 0; present } in
  place t e;
  t.n_entries <- t.n_entries + 1;
  e

let rec locate t k mask i =
  let e = t.slots.(i) in
  if e == t.vacant then -1
  else if e.key = k then i
  else locate t k mask ((i + 1) land mask)

let rec shift t mask hole j =
  let e = t.slots.(j) in
  if e == t.vacant then t.slots.(hole) <- t.vacant
  else if (j - home_slot t e.key) land mask >= (j - hole) land mask then begin
    t.slots.(hole) <- e;
    shift t mask j ((j + 1) land mask)
  end
  else shift t mask hole ((j + 1) land mask)

(* Remove [k]'s entry, shifting later entries of its probe run back so
   no lookup stops early at the hole. *)
let remove t k =
  let mask = Array.length t.slots - 1 in
  let i = locate t k mask (home_slot t k) in
  if i >= 0 then begin
    shift t mask i ((i + 1) land mask);
    t.n_entries <- t.n_entries - 1
  end

(* ------------------------------------------------------------------ *)
(* Eviction FIFO *)

let ring_push t k =
  let cap = Array.length t.ring in
  if t.ring_len = cap then begin
    t.ring <-
      Array.init (2 * cap) (fun i ->
          if i < cap then t.ring.((t.ring_head + i) mod cap) else 0);
    t.ring_head <- 0
  end;
  t.ring.((t.ring_head + t.ring_len) mod Array.length t.ring) <- k;
  t.ring_len <- t.ring_len + 1

let ring_pop t =
  let k = t.ring.(t.ring_head) in
  t.ring_head <- (t.ring_head + 1) mod Array.length t.ring;
  t.ring_len <- t.ring_len - 1;
  k

(* ------------------------------------------------------------------ *)

let sync_hints t =
  Array.fill t.hints 0 (Array.length t.hints) 0;
  Robinhood.iter_home_disp t.host (fun ~home ~disp ->
      let g = home / hint_slots in
      if disp > t.hints.(g) then t.hints.(g) <- disp)

(* The host table's keys are distinct, so an index that starts empty
   (at seal, at promotion) has no entry to probe for. *)
let prewarm t =
  let empty = t.n_entries = 0 in
  (try
     Robinhood.iter t.host (fun k v seq ->
         if t.n_cached >= t.cache_capacity then raise Exit;
         if empty || find t k == t.vacant then begin
           let e = add t k ~seq ~present:true in
           e.value <- Some v;
           t.n_cached <- t.n_cached + 1;
           ring_push t k
         end)
   with Exit -> ())

let cached_values t = t.n_cached

let cache_hits t = t.hits

let seg_of_key t k = Robinhood.home t.host k / hint_slots

(* Remove cache values until under capacity, skipping entries that are
   pinned (committed but not yet applied by the host) or locked. *)
let evict t =
  let attempts = ref t.ring_len in
  while t.n_cached > t.cache_capacity && !attempts > 0 do
    decr attempts;
    if t.ring_len = 0 then attempts := 0
    else
      let k = ring_pop t in
      let e = find t k in
      if e != t.vacant then
        if e.pins > 0 || e.lock <> unlocked then ring_push t k
        else begin
          if e.value <> None then begin
            e.value <- None;
            t.n_cached <- t.n_cached - 1
          end;
          remove t k
        end
  done

let cache_value t k e v =
  (match e.value with
  | None ->
      t.n_cached <- t.n_cached + 1;
      ring_push t k
  | Some _ -> ());
  e.value <- Some v;
  if t.n_cached > t.cache_capacity then evict t

let get_or_make_entry t k ~seq ~present =
  let e = find t k in
  if e != t.vacant then e else add t k ~seq ~present

(* Hint-guided DMA lookup against the host table (§4.1.3): one region
   read of dᵢ + k slots (hint + slack, at least 1, at most the
   displacement limit), then a second adjacent read up to the limit,
   then the overflow page. *)
let lookup_dma t io k =
  let seg = seg_of_key t k in
  let host_seg =
    Robinhood.segment_of_pos t.host (Robinhood.home t.host k)
  in
  let limit =
    match Robinhood.d_max t.host with
    | Some d -> d
    | None -> max 1 (Robinhood.seg_disp_bound t.host host_seg + 1)
  in
  let read_overflow () =
    let ovf_bytes = max Kv.slot_header_b (Robinhood.overflow_bytes t.host k) in
    io.dma_read
      ~slots:(max 1 (Robinhood.overflow_count t.host host_seg))
      ~bytes:ovf_bytes;
    fst (Robinhood.find_overflow t.host k)
  in
  let fetch_at disp =
    match Robinhood.value_at t.host k ~disp with
    | Some (v, seq) ->
        if Robinhood.value_bytes t.host v > Kv.inline_max then
          io.dma_read ~slots:1
            ~bytes:(Kv.slot_header_b + Robinhood.value_bytes t.host v);
        if disp > t.hints.(seg) then t.hints.(seg) <- disp;
        Some (v, seq)
    | None -> None
  in
  (* Read d_i + k slots from the home position (§4.1.3). The hint is
     the furthest known displacement itself, so hint + slack slots
     (k = 1) end exactly on it; a key the hint has not caught up with
     yet is found by the second read. *)
  let read1 = max 1 (min (t.hints.(seg) + slack) limit) in
  io.dma_read ~slots:read1
    ~bytes:(Robinhood.region_bytes t.host k ~from_disp:0 ~slots:read1);
  match Robinhood.scan t.host k ~from_disp:0 ~slots:read1 with
  | Robinhood.Hit { disp; _ } -> fetch_at disp
  | Robinhood.Miss_empty _ -> None
  | Robinhood.Miss_exhausted ->
      if read1 < limit then begin
        let read2 = limit - read1 in
        io.dma_read ~slots:read2
          ~bytes:(Robinhood.region_bytes t.host k ~from_disp:read1 ~slots:read2);
        match Robinhood.scan t.host k ~from_disp:read1 ~slots:read2 with
        | Robinhood.Hit { disp; _ } -> fetch_at disp
        | Robinhood.Miss_empty _ -> None
        | Robinhood.Miss_exhausted ->
            if Robinhood.d_max t.host <> None then read_overflow () else None
      end
      else if Robinhood.d_max t.host <> None then read_overflow ()
      else None

let read t io k =
  let e = find t k in
  match e.value with
  | Some v when e.present ->
      io.nic_mem ();
      t.hits <- t.hits + 1;
      Some (v, e.seq)
  | _ when e != t.vacant && not e.present ->
      io.nic_mem ();
      (* Pure stat counter: the increment re-reads after the resume, so
         concurrent hits are each counted exactly once. *)
      (* xenic-lint: atomic nic-read-hit-count *)
      t.hits <- t.hits + 1;
      None
  | _ ->
      t.misses <- t.misses + 1;
      let outcome = lookup_dma t io k in
      (* The DMA may have suspended; if a concurrent lock or commit
         created or updated the metadata entry in the meantime, the
         entry is authoritative — never let the (possibly stale) host
         read clobber it. *)
      let e = find t k in
      if e == t.vacant then
        match outcome with
        | Some (v, seq) ->
            let e = add t k ~seq ~present:true in
            cache_value t k e v;
            Some (v, seq)
        | None -> None
      else if not e.present then None
      else begin
        (match (e.value, outcome) with
        | None, Some (v, seq) when e.pins = 0 && e.lock = unlocked ->
            (* xenic-lint: atomic nic-read-refill *)
            e.seq <- seq;
            cache_value t k e v
        | _ -> ());
        match e.value with
        | Some v -> Some (v, e.seq)
        | None -> (
            match outcome with Some (v, _) -> Some (v, e.seq) | None -> None)
      end

let version t io k =
  let e = find t k in
  if e != t.vacant then begin
    io.nic_mem ();
    if e.present then Some e.seq else None
  end
  else match read t io k with Some (_, seq) -> Some seq | None -> None

let try_lock t io k ~owner =
  let e = find t k in
  if e != t.vacant then
    if e.lock <> unlocked && e.lock <> owner then begin
      io.nic_mem ();
      `Locked
    end
    else begin
      (* Take the lock before charging the NIC-memory latency: the
         charge can suspend, and [evict] would drop a still-unlocked
         entry out of the table mid-grant, leaving this lock on a
         dangling record invisible to later acquirers. A held lock
         pins the entry. *)
      (* xenic-lint: atomic nic-lock-grant *)
      e.lock <- owner;
      io.nic_mem ();
      `Acquired e.seq
    end
  else
    (* Allocate an index entry; fetch the current version from the host
       so commit can increment it. The DMA suspends, so another handler
       may have allocated (and locked) the entry meanwhile — re-check
       before granting. *)
    let outcome = lookup_dma t io k in
    let e = find t k in
    if e != t.vacant then
      if e.lock <> unlocked && e.lock <> owner then `Locked
      else begin
        e.lock <- owner;
        `Acquired e.seq
      end
    else
      match outcome with
      | Some (v, seq) ->
          let e = add t k ~seq ~present:true in
          e.lock <- owner;
          cache_value t k e v;
          `Acquired seq
      | None ->
          let e = add t k ~seq:0 ~present:false in
          e.lock <- owner;
          `Acquired 0

let unlock t k ~owner =
  let e = find t k in
  if e != t.vacant then begin
    if e.lock = owner then e.lock <- unlocked;
    (* Drop metadata-only entries once idle; the host version is
       consistent again. *)
    if e.lock = unlocked && e.pins = 0 && e.value = None then remove t k
  end

let locked_keys t =
  Array.fold_left
    (fun acc e ->
      if e != t.vacant && e.lock <> unlocked then (e.key, e.lock) :: acc else acc)
    [] t.slots
  |> List.sort compare

let lock_owner t k =
  let e = find t k in
  if e != t.vacant && e.lock <> unlocked then Some e.lock else None

let apply_commit t k v =
  let e = get_or_make_entry t k ~seq:0 ~present:true in
  e.seq <- e.seq + 1;
  e.present <- true;
  e.pins <- e.pins + 1;
  cache_value t k e v;
  e.seq

let apply_delete t k =
  let e = get_or_make_entry t k ~seq:0 ~present:true in
  e.seq <- e.seq + 1;
  e.present <- false;
  e.pins <- e.pins + 1;
  (match e.value with
  | Some _ ->
      e.value <- None;
      t.n_cached <- t.n_cached - 1
  | None -> ())

let host_applied t k =
  let e = find t k in
  if e != t.vacant && e.pins > 0 then e.pins <- e.pins - 1
