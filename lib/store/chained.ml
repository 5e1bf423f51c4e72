(* Flat bucket layout. A block holds a run of buckets as parallel cell
   arrays ([b] cells per bucket) plus one chain link per bucket. The
   main buckets [0, buckets) form one block; chained buckets get the
   next ids in allocation order and live in fixed-size chunk blocks, so
   growing a chain allocates at most one chunk and never copies cells. *)

let chunk_buckets = 64

type 'v block = {
  keys : int array;
  seqs : int array;
  live : Bytes.t;  (* '\001' = occupied cell *)
  mutable values : 'v array;  (* [||] until the first write supplies a filler *)
  next : int array;  (* per bucket: id of the chained bucket, -1 = none *)
}

type 'v t = {
  main : 'v block;
  mutable chunks : 'v block array;
  n_main : int;
  b : int;
  mutable size : int;
  mutable allocated : int;
}

let new_block ~buckets ~b =
  let cells = buckets * b in
  {
    keys = Array.make cells 0;
    seqs = Array.make cells 0;
    live = Bytes.make cells '\000';
    values = [||];
    next = Array.make buckets (-1);
  }

let create ~buckets ~b =
  if buckets <= 0 || b <= 0 then invalid_arg "Chained.create";
  {
    main = new_block ~buckets ~b;
    chunks = [||];
    n_main = buckets;
    b;
    size = 0;
    allocated = buckets;
  }

let capacity t = t.n_main * t.b

let size t = t.size

let b t = t.b

let home t k = Kv.Key.hash k mod t.n_main

(* Block holding bucket [id], and the bucket's index within it. *)
let block t id =
  if id < t.n_main then t.main else t.chunks.((id - t.n_main) / chunk_buckets)

let local t id = if id < t.n_main then id else (id - t.n_main) mod chunk_buckets

let next_bucket t id = (block t id).next.(local t id)

(* Cells are addressed globally as [bucket id * b + slot]. *)
let cell_block t c = block t (c / t.b)

let cell_index t c = (local t (c / t.b) * t.b) + (c mod t.b)

(* Cell holding [k], or -1: the chain from [k]'s home bucket, each
   bucket's cells in order. *)
let find_cell t k =
  let rec in_bucket id =
    let blk = block t id and base = local t id * t.b in
    let rec scan i =
      if i = t.b then
        let nx = next_bucket t id in
        if nx < 0 then -1 else in_bucket nx
      else if Bytes.get blk.live (base + i) <> '\000' && blk.keys.(base + i) = k then
        (id * t.b) + i
      else scan (i + 1)
    in
    scan 0
  in
  in_bucket (home t k)

let write t c k v ~seq =
  let blk = cell_block t c and i = cell_index t c in
  if Array.length blk.values = 0 then
    blk.values <- Array.make (Array.length blk.keys) v;
  Bytes.set blk.live i '\001';
  blk.keys.(i) <- k;
  blk.seqs.(i) <- seq;
  blk.values.(i) <- v

let find t k =
  let c = find_cell t k in
  if c < 0 then None
  else
    let blk = cell_block t c and i = cell_index t c in
    Some (blk.values.(i), blk.seqs.(i))

let mem t k = find_cell t k >= 0

let update t k v ~seq =
  let c = find_cell t k in
  if c >= 0 then write t c k v ~seq;
  c >= 0

(* Append a chained bucket, opening a new chunk when the last is full. *)
let new_bucket t =
  let id = t.allocated in
  if (id - t.n_main) mod chunk_buckets = 0 then
    t.chunks <- Array.append t.chunks [| new_block ~buckets:chunk_buckets ~b:t.b |];
  t.allocated <- id + 1;
  id

(* Place an absent key in the first free cell along its chain, chaining
   a new bucket when every cell is taken. *)
let insert_absent t k v ~seq =
  let rec place id =
    let blk = block t id and base = local t id * t.b in
    let rec free i =
      if i = t.b then -1
      else if Bytes.get blk.live (base + i) = '\000' then i
      else free (i + 1)
    in
    let i = free 0 in
    if i >= 0 then write t ((id * t.b) + i) k v ~seq
    else
      let nx = next_bucket t id in
      if nx >= 0 then place nx
      else begin
        let nid = new_bucket t in
        blk.next.(local t id) <- nid;
        place nid
      end
  in
  place (home t k);
  t.size <- t.size + 1

let insert t k v =
  let c = find_cell t k in
  if c >= 0 then write t c k v ~seq:((cell_block t c).seqs.(cell_index t c) + 1)
  else insert_absent t k v ~seq:1

let put_newer t k v ~seq =
  let c = find_cell t k in
  if c < 0 then insert_absent t k v ~seq
  else if seq > (cell_block t c).seqs.(cell_index t c) then write t c k v ~seq

let delete t k =
  let c = find_cell t k in
  if c >= 0 then begin
    Bytes.set (cell_block t c).live (cell_index t c) '\000';
    t.size <- t.size - 1
  end;
  c >= 0

let lookup_cost t k =
  let c = find_cell t k in
  if c < 0 then None
  else
    let target = c / t.b in
    let rec depth id d = if id = target then d else depth (next_bucket t id) (d + 1) in
    let d = depth (home t k) 1 in
    Some (d * t.b, d)

let buckets_allocated t = t.allocated
