type 'v slot = {
  mutable occupied : bool;
  mutable key : int;
  mutable value : 'v option;
}

type 'v t = {
  slots : 'v slot array;
  capacity : int;
  h : int;
  mutable overflow : (int, (int * 'v) list) Hashtbl.t;  (* home bucket -> chain *)
  mutable size : int;
  mutable ovf_size : int;
}

let create ~capacity ~h =
  if capacity <= 0 || h <= 0 then invalid_arg "Hopscotch.create";
  {
    slots =
      Array.init capacity (fun _ -> { occupied = false; key = 0; value = None });
    capacity;
    h;
    overflow = Hashtbl.create 64;
    size = 0;
    ovf_size = 0;
  }

let size t = t.size + t.ovf_size

let home t k = Kv.Key.hash k mod t.capacity

(* The probe loops take their state as arguments: a local loop closing
   over the table and key would allocate a closure per call. *)
let rec probe t k hm i =
  if i >= t.h then -1
  else
    let pos = (hm + i) mod t.capacity in
    let s = t.slots.(pos) in
    if s.occupied && s.key = k then pos else probe t k hm (i + 1)

(* [k]'s slot in its home neighborhood, or -1. *)
let in_neighborhood t k = probe t k (home t k) 0

let ovf_chain t hm = Option.value ~default:[] (Hashtbl.find_opt t.overflow hm)

let find t k =
  let pos = in_neighborhood t k in
  if pos >= 0 then t.slots.(pos).value
  else List.assoc_opt k (ovf_chain t (home t k))

(* Distance from [hm] to [pos] going forward (circular). *)
let dist t hm pos = (pos - hm + t.capacity) mod t.capacity

(* Relocate into the free slot [free] the first element, from offset
   [i] of the window of [h-1] slots before it, whose own neighborhood
   still covers [free]; its old slot, now free, or -1. *)
let rec relocate t free i =
  if i >= t.h then -1
  else
    let cand = (free - t.h + 1 + i + t.capacity) mod t.capacity in
    let s = t.slots.(cand) in
    if s.occupied && dist t (home t s.key) free < t.h then begin
      let f = t.slots.(free) in
      f.occupied <- true;
      f.key <- s.key;
      f.value <- s.value;
      s.occupied <- false;
      s.value <- None;
      cand
    end
    else relocate t free (i + 1)

(* Move the free slot at [free] into [hm]'s neighborhood by relocations;
   the slot it ends at, or -1. *)
let rec hop t hm free =
  if dist t hm free < t.h then free
  else
    let free' = relocate t free 0 in
    if free' < 0 then -1 else hop t hm free'

(* The first free slot at or after offset [i] from [hm]. *)
let rec find_free t hm i =
  if i >= t.capacity then failwith "Hopscotch.insert: table full"
  else
    let pos = (hm + i) mod t.capacity in
    if not t.slots.(pos).occupied then pos else find_free t hm (i + 1)

let insert t k v =
  let pos = in_neighborhood t k in
  if pos >= 0 then t.slots.(pos).value <- Some v
  else begin
    let hm = home t k in
    let chain = ovf_chain t hm in
    if List.mem_assoc k chain then
      Hashtbl.replace t.overflow hm ((k, v) :: List.remove_assoc k chain)
    else begin
      if t.size >= t.capacity then failwith "Hopscotch.insert: table full";
      (* Linear-probe for a free slot, then hop it home. *)
      let pos = hop t hm (find_free t hm 0) in
      if pos >= 0 then begin
        let s = t.slots.(pos) in
        s.occupied <- true;
        s.key <- k;
        s.value <- Some v;
        t.size <- t.size + 1
      end
      else begin
        Hashtbl.replace t.overflow hm ((k, v) :: chain);
        t.ovf_size <- t.ovf_size + 1
      end
    end
  end

let delete t k =
  let pos = in_neighborhood t k in
  if pos >= 0 then begin
    let s = t.slots.(pos) in
    s.occupied <- false;
    s.value <- None;
    t.size <- t.size - 1;
    true
  end
  else
    let hm = home t k in
    let chain = ovf_chain t hm in
    if List.mem_assoc k chain then begin
      Hashtbl.replace t.overflow hm (List.remove_assoc k chain);
      t.ovf_size <- t.ovf_size - 1;
      true
    end
    else false

(* 1-based position of [k] in an overflow chain from position [i]. *)
let rec chain_pos (k : int) i = function
  | [] -> None
  | (k', _) :: rest -> if k' = k then Some i else chain_pos k (i + 1) rest

let lookup_cost t k =
  if in_neighborhood t k >= 0 then Some (t.h, 1)
  else
    match chain_pos k 1 (ovf_chain t (home t k)) with
    | Some n -> Some (t.h + n, 2)
    | None -> None

(* Slot records are [dst]'s own, overwritten field by field; the
   overflow chains are immutable lists, so copying the table suffices. *)
let clone_into ~src ~dst =
  if src.capacity <> dst.capacity || src.h <> dst.h then
    invalid_arg "Hopscotch.clone_into: geometry mismatch";
  Array.iteri
    (fun i s ->
      let d = dst.slots.(i) in
      d.occupied <- s.occupied;
      d.key <- s.key;
      d.value <- s.value)
    src.slots;
  dst.overflow <- Hashtbl.copy src.overflow;
  dst.size <- src.size;
  dst.ovf_size <- src.ovf_size
