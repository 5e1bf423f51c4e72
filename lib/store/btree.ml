(* Order: max children per internal node / max entries per leaf. *)
let order = 32

(* Nodes are fixed-capacity arrays with a fill count: [order + 1] slots
   hold the one extra entry an insertion adds before its node splits,
   and inserts and deletes shift entries in place. Slots past the fill
   count may still reference moved or deleted values; nothing reads
   them. *)
type 'v leaf = {
  lkeys : int array;
  mutable lvals : 'v array;  (* [||] in the empty root until the first insert *)
  mutable n : int;
  mutable next : 'v leaf option;
}

type 'v node = Leaf of 'v leaf | Internal of 'v internal

and 'v internal = {
  (* seps.(i) is the smallest key reachable under children.(i+1). *)
  seps : int array;
  children : 'v node array;
  mutable nc : int;  (* children in use; [nc - 1] separators *)
}

type 'v t = { mutable root : 'v node; mutable size : int }

let create () =
  {
    root = Leaf { lkeys = Array.make (order + 1) 0; lvals = [||]; n = 0; next = None };
    size = 0;
  }

let size t = t.size

(* Index of the child covering [k]. *)
let child_index i k =
  let ns = i.nc - 1 in
  let rec go j = if j < ns && k >= i.seps.(j) then go (j + 1) else j in
  go 0

(* Position of k among a leaf's keys, or the insertion point. *)
let search l k =
  let rec go lo hi =
    if lo >= hi then (lo, false)
    else
      let mid = (lo + hi) / 2 in
      if l.lkeys.(mid) = k then (mid, true)
      else if l.lkeys.(mid) < k then go (mid + 1) hi
      else go lo mid
  in
  go 0 l.n

let rec find_leaf node k =
  match node with
  | Leaf l -> l
  | Internal i -> find_leaf i.children.(child_index i k) k

let find t k =
  let l = find_leaf t.root k in
  let i, exact = search l k in
  if exact then Some l.lvals.(i) else None

let mem t k = Option.is_some (find t k)

(* Open a gap at [i] in the first [n] slots of [a]. *)
let shift_right a i n = Array.blit a i a (i + 1) (n - i)

(* Close the gap at [i] in the first [n] slots of [a]. *)
let shift_left a i n = Array.blit a (i + 1) a i (n - 1 - i)

(* Insertion returns an optional split: (separator, right sibling). *)
let rec insert_node node k v =
  match node with
  | Leaf l ->
      let i, exact = search l k in
      if exact then begin
        l.lvals.(i) <- v;
        `Replaced
      end
      else begin
        if Array.length l.lvals = 0 then l.lvals <- Array.make (order + 1) v;
        shift_right l.lkeys i l.n;
        shift_right l.lvals i l.n;
        l.lkeys.(i) <- k;
        l.lvals.(i) <- v;
        l.n <- l.n + 1;
        if l.n > order then begin
          let mid = l.n / 2 in
          let rn = l.n - mid in
          let right =
            {
              lkeys = Array.make (order + 1) 0;
              lvals = Array.make (order + 1) l.lvals.(mid);
              n = rn;
              next = l.next;
            }
          in
          Array.blit l.lkeys mid right.lkeys 0 rn;
          Array.blit l.lvals mid right.lvals 0 rn;
          l.n <- mid;
          l.next <- Some right;
          `Split (right.lkeys.(0), Leaf right)
        end
        else `Inserted
      end
  | Internal node_i -> (
      let ci = child_index node_i k in
      match insert_node node_i.children.(ci) k v with
      | (`Inserted | `Replaced) as r -> r
      | `Split (sep, right) ->
          shift_right node_i.seps ci (node_i.nc - 1);
          node_i.seps.(ci) <- sep;
          shift_right node_i.children (ci + 1) node_i.nc;
          node_i.children.(ci + 1) <- right;
          node_i.nc <- node_i.nc + 1;
          if node_i.nc > order then begin
            let midc = node_i.nc / 2 in
            let rc = node_i.nc - midc in
            let right_int =
              {
                seps = Array.make order 0;
                children = Array.make (order + 1) node_i.children.(midc);
                nc = rc;
              }
            in
            Array.blit node_i.seps midc right_int.seps 0 (rc - 1);
            Array.blit node_i.children midc right_int.children 0 rc;
            let sep_up = node_i.seps.(midc - 1) in
            node_i.nc <- midc;
            `Split (sep_up, Internal right_int)
          end
          else `Inserted)

let insert t k v =
  match insert_node t.root k v with
  | `Replaced -> ()
  | `Inserted -> t.size <- t.size + 1
  | `Split (sep, right) ->
      let root =
        { seps = Array.make order 0; children = Array.make (order + 1) right; nc = 2 }
      in
      root.seps.(0) <- sep;
      root.children.(0) <- t.root;
      t.root <- Internal root;
      t.size <- t.size + 1

let delete t k =
  let l = find_leaf t.root k in
  let i, exact = search l k in
  if exact then begin
    shift_left l.lkeys i l.n;
    shift_left l.lvals i l.n;
    l.n <- l.n - 1;
    t.size <- t.size - 1;
    true
  end
  else false

let iter_range t ~lo ~hi f =
  if lo <= hi then begin
    let l = find_leaf t.root lo in
    let rec walk (l : 'v leaf) =
      let stop = ref false in
      for i = 0 to l.n - 1 do
        let k = l.lkeys.(i) in
        if k > hi then stop := true
        else if k >= lo then f k l.lvals.(i)
      done;
      if not !stop then match l.next with Some nl -> walk nl | None -> ()
    in
    walk l
  end

let fold_range t ~lo ~hi ~init f =
  let acc = ref init in
  iter_range t ~lo ~hi (fun k v -> acc := f !acc k v);
  !acc

let min_in_range t ~lo ~hi =
  let result = ref None in
  (try
     iter_range t ~lo ~hi (fun k v ->
         result := Some (k, v);
         raise Exit)
   with Exit -> ());
  !result

let max_in_range t ~lo ~hi =
  fold_range t ~lo ~hi ~init:None (fun _ k v -> Some (k, v))

let check_invariants t =
  let fail msg = failwith ("Btree.check_invariants: " ^ msg) in
  let check_sorted a n =
    for i = 0 to n - 2 do
      if a.(i) >= a.(i + 1) then fail "keys not strictly sorted"
    done
  in
  (* Verify fill counts and key ranges; collect leaves in tree order. *)
  let leaves = ref [] in
  let rec go node lo hi =
    match node with
    | Leaf l ->
        if l.n < 0 || l.n > order then fail "leaf fill out of bounds";
        check_sorted l.lkeys l.n;
        for i = 0 to l.n - 1 do
          let k = l.lkeys.(i) in
          if k < lo || k > hi then fail "leaf key outside range"
        done;
        leaves := l :: !leaves
    | Internal i ->
        if i.nc < 2 || i.nc > order then fail "child count out of bounds";
        check_sorted i.seps (i.nc - 1);
        for ci = 0 to i.nc - 1 do
          let clo = if ci = 0 then lo else i.seps.(ci - 1) in
          let chi = if ci = i.nc - 1 then hi else i.seps.(ci) - 1 in
          go i.children.(ci) clo chi
        done
  in
  go t.root min_int max_int;
  (* Leaf chain must visit exactly the leaves in tree order. *)
  let ordered = List.rev !leaves in
  let rec check_chain = function
    | a :: (b :: _ as rest) ->
        (match a.next with
        | Some n when n == b -> ()
        | _ -> fail "broken leaf chain");
        check_chain rest
    | [ last ] -> if last.next <> None then fail "dangling leaf chain"
    | [] -> ()
  in
  check_chain ordered;
  let counted = List.fold_left (fun acc l -> acc + l.n) 0 ordered in
  if counted <> t.size then fail "size mismatch"
