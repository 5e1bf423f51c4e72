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

let size t = t.size

let home t k = Kv.Key.hash k mod t.n_main

(* Block holding bucket [id], and the bucket's index within it. *)
let block t id =
  if id < t.n_main then t.main else t.chunks.((id - t.n_main) / chunk_buckets)

let local t id = if id < t.n_main then id else (id - t.n_main) mod chunk_buckets

let next_bucket t id = (block t id).next.(local t id)

(* Cells are addressed globally as [bucket id * b + slot]. *)
let cell_block t c = block t (c / t.b)

let cell_index t c = (local t (c / t.b) * t.b) + (c mod t.b)

(* The probe loops take their state as arguments: a local loop closing
   over the table and key would allocate a closure per call. *)

(* Cell holding [k] from cell [i] of bucket [id] (at [base] in [blk])
   on, or -1. *)
let rec scan_chain t k id blk base i =
  if i = t.b then
    let nx = next_bucket t id in
    if nx < 0 then -1 else scan_chain t k nx (block t nx) (local t nx * t.b) 0
  else if Bytes.get blk.live (base + i) <> '\000' && blk.keys.(base + i) = k then
    (id * t.b) + i
  else scan_chain t k id blk base (i + 1)

(* Cell holding [k], or -1: the chain from [k]'s home bucket, each
   bucket's cells in order. *)
let find_cell t k =
  let id = home t k in
  scan_chain t k id (block t id) (local t id * t.b) 0

let write t c k v ~seq =
  let blk = cell_block t c and i = cell_index t c in
  if Array.length blk.values = 0 then
    blk.values <- Array.make (Array.length blk.keys) v;
  (* xenic-lint: allow BYTES-MUTATION — the block's own [live] bitmap *)
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

let find_value t k =
  let c = find_cell t k in
  if c < 0 then None else Some (cell_block t c).values.(cell_index t c)

(* Append a chained bucket, opening a new chunk when the last is full. *)
let new_bucket t =
  let id = t.allocated in
  if (id - t.n_main) mod chunk_buckets = 0 then
    t.chunks <- Array.append t.chunks [| new_block ~buckets:chunk_buckets ~b:t.b |];
  t.allocated <- id + 1;
  id

(* First free cell of bucket [id] from cell [i] on, or -1. *)
let rec free_cell t blk base i =
  if i = t.b then -1
  else if Bytes.get blk.live (base + i) = '\000' then i
  else free_cell t blk base (i + 1)

(* Place an absent key in the first free cell along the chain from
   bucket [id], chaining a new bucket when every cell is taken. *)
let rec place t k v ~seq id =
  let blk = block t id in
  let i = free_cell t blk (local t id * t.b) 0 in
  if i >= 0 then write t ((id * t.b) + i) k v ~seq
  else
    let nx = next_bucket t id in
    if nx >= 0 then place t k v ~seq nx
    else begin
      let nid = new_bucket t in
      blk.next.(local t id) <- nid;
      place t k v ~seq nid
    end

let insert_absent t k v ~seq =
  place t k v ~seq (home t k);
  t.size <- t.size + 1

let insert t k v =
  let c = find_cell t k in
  if c >= 0 then write t c k v ~seq:((cell_block t c).seqs.(cell_index t c) + 1)
  else insert_absent t k v ~seq:1

let put_newer t k v ~seq =
  let c = find_cell t k in
  if c < 0 then insert_absent t k v ~seq
  else if seq > (cell_block t c).seqs.(cell_index t c) then write t c k v ~seq

let clear t c =
  (* xenic-lint: allow BYTES-MUTATION — the block's own [live] bitmap *)
  Bytes.set (cell_block t c).live (cell_index t c) '\000';
  t.size <- t.size - 1

let delete_older t k ~seq =
  let c = find_cell t k in
  if c >= 0 && seq > (cell_block t c).seqs.(cell_index t c) then clear t c

(* Buckets visited from [id] to reach bucket [target], counting from [d]. *)
let rec chain_depth t ~target id d =
  if id = target then d else chain_depth t ~target (next_bucket t id) (d + 1)

let lookup_cost t k =
  let c = find_cell t k in
  if c < 0 then None
  else
    let d = chain_depth t ~target:(c / t.b) (home t k) 1 in
    Some (d * t.b, d)

let buckets_allocated t = t.allocated

(* Copy [src]'s cells and chain links over [dst], a block of the same
   size; [dst] gets its own [values] array. *)
let blit_block ~src ~dst =
  Array.blit src.keys 0 dst.keys 0 (Array.length src.keys);
  Array.blit src.seqs 0 dst.seqs 0 (Array.length src.seqs);
  (* xenic-lint: allow BYTES-MUTATION — [dst]'s own [live] bitmap *)
  Bytes.blit src.live 0 dst.live 0 (Bytes.length src.live);
  Array.blit src.next 0 dst.next 0 (Array.length src.next);
  dst.values <- Array.copy src.values

let clone_into ~src ~dst =
  if src.n_main <> dst.n_main || src.b <> dst.b then
    invalid_arg "Chained.clone_into: geometry mismatch";
  blit_block ~src:src.main ~dst:dst.main;
  dst.chunks <-
    Array.map
      (fun blk ->
        let copy = new_block ~buckets:chunk_buckets ~b:src.b in
        blit_block ~src:blk ~dst:copy;
        copy)
      src.chunks;
  dst.size <- src.size;
  dst.allocated <- src.allocated
