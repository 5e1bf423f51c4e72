(* Flat slot layout: one array per slot field, indexed by position, like
   the fixed-size slots a NIC DMA reads. [disps.(p) < 0] marks an empty
   slot. A vacated slot keeps its stale key, seq and value, which nothing
   reads before the slot is filled again. *)

type 'v ovf = { o_key : int; mutable o_seq : int; mutable o_value : 'v }

type 'v t = {
  keys : int array;
  seqs : int array;
  disps : int array;
  mutable values : 'v array;  (* [||] until the first insert supplies a filler *)
  capacity : int;
  n_segments : int;
  seg_size : int;
  d_max : int option;
  vsize : 'v -> int;
  overflow : 'v ovf list array;  (* per segment *)
  seg_bound : int array;  (* monotone max displacement per home segment *)
  mutable size : int;
  mutable ovf_size : int;
}

let create ~segments ~seg_size ~d_max ~vsize =
  if segments <= 0 || seg_size <= 0 then invalid_arg "Robinhood.create";
  (match d_max with
  | Some d when d <= 0 -> invalid_arg "Robinhood.create: d_max must be positive"
  | _ -> ());
  let capacity = segments * seg_size in
  {
    keys = Array.make capacity 0;
    seqs = Array.make capacity 0;
    disps = Array.make capacity (-1);
    values = [||];
    capacity;
    n_segments = segments;
    seg_size;
    d_max;
    vsize;
    overflow = Array.make segments [];
    seg_bound = Array.make segments 0;
    size = 0;
    ovf_size = 0;
  }

let capacity t = t.capacity

let size t = t.size + t.ovf_size

let occupancy t = float_of_int (size t) /. float_of_int t.capacity

let d_max t = t.d_max

let segments t = t.n_segments

let home t k = Kv.Key.hash k mod t.capacity

let segment_of_pos t pos = pos / t.seg_size

let seg_disp_bound t seg = t.seg_bound.(seg)

let overflow_count t seg = List.length t.overflow.(seg)

let value_bytes t v = t.vsize v

let occupied t pos = t.disps.(pos) >= 0

(* Effective displacement cap used to bound probes. *)
let disp_cap t = match t.d_max with Some d -> d | None -> t.capacity

let bump_bound t ~home_pos ~disp =
  let seg = segment_of_pos t home_pos in
  if disp > t.seg_bound.(seg) then t.seg_bound.(seg) <- disp

let set_slot t pos ~key ~seq ~value ~disp =
  if Array.length t.values = 0 then t.values <- Array.make t.capacity value;
  t.keys.(pos) <- key;
  t.seqs.(pos) <- seq;
  t.values.(pos) <- value;
  t.disps.(pos) <- disp

type insert_outcome = Inserted | Replaced | Overflowed

(* Probe for an existing key; -1 when absent from the table. The scan is
   bounded by the home segment's displacement bound and never stops
   early at empties or lower displacements: deletion's overflow-swap can
   break the classic Robinhood ordering invariants, so only the monotone
   bound is sound. *)
let rec find_slot_from t k h i bound =
  if i > bound then -1
  else
    let pos = (h + i) mod t.capacity in
    if occupied t pos && t.keys.(pos) = k then pos
    else find_slot_from t k h (i + 1) bound

let find_slot t k =
  let h = home t k in
  let bound = min (seg_disp_bound t (segment_of_pos t h)) (disp_cap t - 1) in
  find_slot_from t k h 0 bound

let rec find_in_bucket k = function
  | [] -> None
  | o :: rest -> if o.o_key = k then Some o else find_in_bucket k rest

let find_ovf t k = find_in_bucket k t.overflow.(segment_of_pos t (home t k))

let find t k =
  let pos = find_slot t k in
  if pos >= 0 then Some (t.values.(pos), t.seqs.(pos))
  else match find_ovf t k with Some o -> Some (o.o_value, o.o_seq) | None -> None

let find_value t k =
  let pos = find_slot t k in
  if pos >= 0 then Some t.values.(pos)
  else match find_ovf t k with Some o -> Some o.o_value | None -> None

let locate t k =
  let pos = find_slot t k in
  if pos >= 0 then Some (`Table t.disps.(pos))
  else match find_ovf t k with Some _ -> Some `Overflow | None -> None

let update t k v ~seq =
  let pos = find_slot t k in
  if pos >= 0 then begin
    t.values.(pos) <- v;
    t.seqs.(pos) <- seq;
    true
  end
  else
    match find_ovf t k with
    | Some o ->
        o.o_value <- v;
        o.o_seq <- seq;
        true
    | None -> false

(* A pending slot write of the copy-list: place [record] at [pos] with
   displacement [disp]. *)
type 'v move = { m_pos : int; m_key : int; m_seq : int; m_value : 'v; m_disp : int }

let apply_moves ?(on_step = fun () -> ()) t moves =
  (* Moves are accumulated in probe order; applying them from the last
     (the free slot) backward duplicates each displaced element before
     its old slot is overwritten, so a concurrent region read never
     observes a missing element. *)
  List.iter
    (fun m ->
      set_slot t m.m_pos ~key:m.m_key ~seq:m.m_seq ~value:m.m_value ~disp:m.m_disp;
      let home_pos = (m.m_pos - m.m_disp + t.capacity) mod t.capacity in
      bump_bound t ~home_pos ~disp:m.m_disp;
      on_step ())
    moves

(* Insert a key known to be absent, at version [seq]. *)
let insert_absent ?on_step t k v ~seq =
  if t.size >= t.capacity then failwith "Robinhood.insert: table full";
  let cap = disp_cap t in
  (* Carry (key, seq, value) along the probe, swapping with better-placed
     residents; collect writes in reverse order so the head of [moves] is
     the last write (free slot first). *)
  let rec probe pos disp ~ck ~cseq ~cv moves =
    if disp >= cap then begin
      (* Displacement limit: the carried element overflows to the bucket
         of the segment holding its home position. *)
      apply_moves ?on_step t moves;
      let seg = segment_of_pos t (home t ck) in
      t.overflow.(seg) <- { o_key = ck; o_seq = cseq; o_value = cv } :: t.overflow.(seg);
      t.ovf_size <- t.ovf_size + 1;
      Overflowed
    end
    else if not (occupied t pos) then begin
      apply_moves ?on_step t
        ({ m_pos = pos; m_key = ck; m_seq = cseq; m_value = cv; m_disp = disp } :: moves);
      t.size <- t.size + 1;
      Inserted
    end
    else if t.disps.(pos) < disp then
      (* Steal the slot; continue carrying the displaced resident from
         here. *)
      let moves =
        { m_pos = pos; m_key = ck; m_seq = cseq; m_value = cv; m_disp = disp } :: moves
      in
      probe ((pos + 1) mod t.capacity) (t.disps.(pos) + 1) ~ck:t.keys.(pos)
        ~cseq:t.seqs.(pos) ~cv:t.values.(pos) moves
    else probe ((pos + 1) mod t.capacity) (disp + 1) ~ck ~cseq ~cv moves
  in
  probe (home t k) 0 ~ck:k ~cseq:seq ~cv:v []

let insert ?on_step t k v =
  let pos = find_slot t k in
  if pos >= 0 then begin
    t.values.(pos) <- v;
    t.seqs.(pos) <- t.seqs.(pos) + 1;
    Replaced
  end
  else
    match find_ovf t k with
    | Some o ->
        o.o_value <- v;
        o.o_seq <- o.o_seq + 1;
        Replaced
    | None -> insert_absent ?on_step t k v ~seq:1

(* Is every slot in [from, to) occupied (circularly)? Required before an
   overflow element may be swapped over a deleted slot: its probe path
   must stay contiguous. *)
let rec path_occupied_from t pos ~upto =
  if pos = upto then true
  else if not (occupied t pos) then false
  else path_occupied_from t ((pos + 1) mod t.capacity) ~upto

let path_occupied t ~from ~upto = from = upto || path_occupied_from t from ~upto

let remove_ovf t k =
  let seg = segment_of_pos t (home t k) in
  t.overflow.(seg) <- List.filter (fun o -> o.o_key <> k) t.overflow.(seg);
  t.ovf_size <- t.ovf_size - 1

(* Backward shift: pull successors one slot closer until an empty slot
   or a perfectly-placed element ends the run. *)
let rec shift_back t hole =
  let next = (hole + 1) mod t.capacity in
  if t.disps.(next) > 0 then begin
    set_slot t hole ~key:t.keys.(next) ~seq:t.seqs.(next) ~value:t.values.(next)
      ~disp:(t.disps.(next) - 1);
    shift_back t next
  end
  else t.disps.(hole) <- -1

(* Delete the element at table position [pos]. *)
let remove_at t pos =
  let disp = t.disps.(pos) in
  let seg = segment_of_pos t ((pos - disp + t.capacity) mod t.capacity) in
  let cap = disp_cap t in
  (* Prefer swapping an overflow element of the same segment over the
     hole (paper §4.1.2); it must fit under the displacement limit, not
     land before its own home, and keep its probe path contiguous. *)
  let candidate =
    List.find_opt
      (fun o ->
        let ho = home t o.o_key in
        let d = (pos - ho + t.capacity) mod t.capacity in
        d < cap && d <= disp && path_occupied t ~from:ho ~upto:pos)
      t.overflow.(seg)
  in
  (match candidate with
  | Some o ->
      let d = (pos - home t o.o_key + t.capacity) mod t.capacity in
      set_slot t pos ~key:o.o_key ~seq:o.o_seq ~value:o.o_value ~disp:d;
      remove_ovf t o.o_key;
      t.size <- t.size + 1 (* net: table +1, overflow -1; deleted -1 below *)
  | None ->
      shift_back t pos);
  t.size <- t.size - 1

let delete t k =
  let pos = find_slot t k in
  if pos >= 0 then begin
    remove_at t pos;
    true
  end
  else if Option.is_some (find_ovf t k) then begin
    remove_ovf t k;
    true
  end
  else false

let put_newer t k v ~seq =
  let pos = find_slot t k in
  if pos >= 0 then begin
    if seq > t.seqs.(pos) then begin
      t.values.(pos) <- v;
      t.seqs.(pos) <- seq
    end
  end
  else
    match find_ovf t k with
    | Some o ->
        if seq > o.o_seq then begin
          o.o_value <- v;
          o.o_seq <- seq
        end
    | None -> ignore (insert_absent t k v ~seq)

let delete_older t k ~seq =
  let pos = find_slot t k in
  if pos >= 0 then (if seq > t.seqs.(pos) then remove_at t pos)
  else
    match find_ovf t k with
    | Some o when seq > o.o_seq -> remove_ovf t k
    | Some _ | None -> ()

type scan_result =
  | Hit of { disp : int; seq : int; out_of_line : bool }
  | Miss_empty of int
  | Miss_exhausted

let rec scan_from t k h i read slots =
  if read >= slots then Miss_exhausted
  else
    let pos = (h + i) mod t.capacity in
    if not (occupied t pos) then Miss_empty (read + 1)
    else if t.keys.(pos) = k then
      Hit
        {
          disp = i;
          seq = t.seqs.(pos);
          out_of_line = t.vsize t.values.(pos) > Kv.inline_max;
        }
    else scan_from t k h (i + 1) (read + 1) slots

let scan t k ~from_disp ~slots = scan_from t k (home t k) from_disp 0 slots

let value_at t k ~disp =
  let pos = (home t k + disp) mod t.capacity in
  if occupied t pos && t.keys.(pos) = k then Some (t.values.(pos), t.seqs.(pos))
  else None

let region_bytes t k ~from_disp ~slots =
  let h = home t k in
  let total = ref 0 in
  for i = from_disp to from_disp + slots - 1 do
    let pos = (h + i) mod t.capacity in
    let value_b = if occupied t pos then t.vsize t.values.(pos) else 0 in
    total := !total + Kv.slot_bytes ~value_b
  done;
  !total

let overflow_bytes t k =
  let seg = segment_of_pos t (home t k) in
  List.fold_left
    (fun acc o -> acc + Kv.slot_bytes ~value_b:(t.vsize o.o_value))
    0 t.overflow.(seg)

let find_overflow t k =
  let seg = segment_of_pos t (home t k) in
  let bucket = t.overflow.(seg) in
  let n = List.length bucket in
  match find_in_bucket k bucket with
  | Some o -> (Some (o.o_value, o.o_seq), n)
  | None -> (None, n)

let iter t f =
  for pos = 0 to t.capacity - 1 do
    if occupied t pos then f t.keys.(pos) t.values.(pos) t.seqs.(pos)
  done;
  Array.iter (fun l -> List.iter (fun o -> f o.o_key o.o_value o.o_seq) l) t.overflow

let iter_home_disp t f =
  for pos = 0 to t.capacity - 1 do
    let disp = t.disps.(pos) in
    if disp >= 0 then f ~home:((pos - disp + t.capacity) mod t.capacity) ~disp
  done

(* Slot arrays, bounds and counts are blitted into [dst]'s own arrays;
   overflow records and the [values] array are fresh, so no mutable cell
   is shared. The values themselves are. *)
let clone_into ~src ~dst =
  if
    src.n_segments <> dst.n_segments
    || src.seg_size <> dst.seg_size
    || src.d_max <> dst.d_max
  then invalid_arg "Robinhood.clone_into: geometry mismatch";
  Array.blit src.keys 0 dst.keys 0 src.capacity;
  Array.blit src.seqs 0 dst.seqs 0 src.capacity;
  Array.blit src.disps 0 dst.disps 0 src.capacity;
  dst.values <- Array.copy src.values;
  Array.blit src.seg_bound 0 dst.seg_bound 0 src.n_segments;
  Array.iteri
    (fun seg bucket ->
      dst.overflow.(seg) <-
        List.map
          (fun o -> { o_key = o.o_key; o_seq = o.o_seq; o_value = o.o_value })
          bucket)
    src.overflow;
  dst.size <- src.size;
  dst.ovf_size <- src.ovf_size
