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

let capacity t = t.capacity

let size t = t.size + t.ovf_size

let h t = t.h

let home t k = Kv.Key.hash k mod t.capacity

let in_neighborhood t k =
  let hm = home t k in
  let rec go i =
    if i >= t.h then None
    else
      let pos = (hm + i) mod t.capacity in
      let s = t.slots.(pos) in
      if s.occupied && s.key = k then Some pos else go (i + 1)
  in
  go 0

let ovf_chain t hm = Option.value ~default:[] (Hashtbl.find_opt t.overflow hm)

let find t k =
  match in_neighborhood t k with
  | Some pos -> t.slots.(pos).value
  | None -> List.assoc_opt k (ovf_chain t (home t k))

let mem t k = Option.is_some (find t k)

(* Distance from [hm] to [pos] going forward (circular). *)
let dist t hm pos = (pos - hm + t.capacity) mod t.capacity

(* Try to move the free slot at [free] closer to [hm] by relocating an
   element from the window of [h-1] slots before [free] whose own
   neighborhood still covers [free]. *)
let rec hop t hm free =
  if dist t hm free < t.h then Some free
  else begin
    let rec try_candidate i =
      if i >= t.h then None
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
          Some cand
        end
        else try_candidate (i + 1)
    in
    match try_candidate 0 with
    | None -> None
    | Some free' -> hop t hm free'
  end

let insert t k v =
  match in_neighborhood t k with
  | Some pos -> t.slots.(pos).value <- Some v
  | None -> (
      let hm = home t k in
      let chain = ovf_chain t hm in
      if List.mem_assoc k chain then
        Hashtbl.replace t.overflow hm
          ((k, v) :: List.remove_assoc k chain)
      else begin
        if t.size >= t.capacity then failwith "Hopscotch.insert: table full";
        (* Linear-probe for a free slot, then hop it home. *)
        let rec find_free i =
          if i >= t.capacity then failwith "Hopscotch.insert: table full"
          else
            let pos = (hm + i) mod t.capacity in
            if not t.slots.(pos).occupied then pos else find_free (i + 1)
        in
        let free = find_free 0 in
        match hop t hm free with
        | Some pos ->
            let s = t.slots.(pos) in
            s.occupied <- true;
            s.key <- k;
            s.value <- Some v;
            t.size <- t.size + 1
        | None ->
            Hashtbl.replace t.overflow hm ((k, v) :: chain);
            t.ovf_size <- t.ovf_size + 1
      end)

let delete t k =
  match in_neighborhood t k with
  | Some pos ->
      let s = t.slots.(pos) in
      s.occupied <- false;
      s.value <- None;
      t.size <- t.size - 1;
      true
  | None ->
      let hm = home t k in
      let chain = ovf_chain t hm in
      if List.mem_assoc k chain then begin
        Hashtbl.replace t.overflow hm (List.remove_assoc k chain);
        t.ovf_size <- t.ovf_size - 1;
        true
      end
      else false

let lookup_cost t k =
  match in_neighborhood t k with
  | Some _ -> Some (t.h, 1)
  | None ->
      let chain = ovf_chain t (home t k) in
      let rec scan i = function
        | [] -> None
        | (k', _) :: rest -> if k' = k then Some i else scan (i + 1) rest
      in
      (match scan 1 chain with
      | Some n -> Some (t.h + n, 2)
      | None -> None)

let overflow_fraction t =
  if size t = 0 then 0.0 else float_of_int t.ovf_size /. float_of_int (size t)

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
