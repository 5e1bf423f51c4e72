(* Structure-of-arrays 4-ary min-heap.

   The hot path of the whole simulator. Keys live in parallel unboxed
   arrays — [times : float array] (flat float storage, no per-entry
   box) and [seqs : int array] — so [push] and [pop] allocate nothing:
   no entry record, no tuple, no option. The values (event closures)
   do not move: each sits in a slot of [values] from push to pop, and
   the sift moves the slot's int index in [slots]. Storing a closure
   into an array costs a write barrier, so each is written once on
   push and cleared once on pop, not at every sift level. A popped
   slot is overwritten with [dummy], so the heap never retains a
   dispatched closure (and, transitively, whatever simulation state it
   captured), and goes back on the [free] stack.

   The tree is 4-ary (children of [i] at [4i+1..4i+4]): half the depth
   of a binary heap, and the four children of a node are contiguous in
   the key arrays, so a sift-down level is one cache line of times. The
   heap SHAPE differs from a binary heap but the pop ORDER cannot:
   (time, seq) is a strict total order (seq is unique), so any correct
   heap yields the identical event sequence — which is what the golden
   regression tests pin.

   Ordering is (time, seq): earliest time first, insertion order for
   equal times. Comparisons are written as [t < pt || (t <= pt && ...)]
   — the second disjunct only runs when [not (t < pt)], where [<=] is
   exactly float equality, without writing a float [=] (times are never
   NaN; they come from [Engine.at] which only adds finite delays).

   [Array.unsafe_*] below is confined to indices already bounded by
   [h.size <= Array.length h.times], or to slots below that capacity
   (all five arrays share one capacity, enforced by [grow]). *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;  (* heap position -> index into [values] *)
  mutable values : 'a array;  (* indexed by slot, not by heap position *)
  mutable free : int array;  (* stack of free slots, [free.(0 .. nfree-1)] *)
  mutable nfree : int;
  mutable size : int;
  dummy : 'a;  (* fills empty value slots; never returned *)
}

let initial_capacity = 256

let create ~dummy =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    values = [||];
    free = [||];
    nfree = 0;
    size = 0;
    dummy;
  }

let is_empty h = h.size = 0

let length h = h.size

(* Cold paths live out of line to keep the hot accessors short. Nothing
   here is inlined into other modules: dune's dev profile, which the
   tests and bench/cost build with, compiles with [-opaque], so every
   call from Engine is a real call and a float result is boxed. *)
let fail_empty op = invalid_arg ("Heap." ^ op ^ ": empty heap")

(* The slots [size .. cap-1] of a grown heap are all free: with the heap
   full, every old slot is in use, so the free stack is exactly the new
   ones. *)
let grow h =
  let cap = Array.length h.times in
  let cap' = if cap = 0 then initial_capacity else 2 * cap in
  let times = Array.make cap' 0.0 in
  let seqs = Array.make cap' 0 in
  let slots = Array.make cap' 0 in
  let values = Array.make cap' h.dummy in
  Array.blit h.times 0 times 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  Array.blit h.slots 0 slots 0 h.size;
  Array.blit h.values 0 values 0 cap;
  h.times <- times;
  h.seqs <- seqs;
  h.slots <- slots;
  h.values <- values;
  h.free <- Array.init cap' (fun i -> cap' - 1 - i);
  h.nfree <- cap' - cap

(* Inlined into both entry points, so [push_at]'s time goes from the
   caller's float array to [times] without a box. *)
let[@inline] push_key h time seq value =
  if h.size = Array.length h.times then grow h;
  let times = h.times and seqs = h.seqs and slots = h.slots in
  (* The value is written once, into a free slot; the sift moves only
     unboxed keys and int slot indices. *)
  h.nfree <- h.nfree - 1;
  let slot = Array.unsafe_get h.free h.nfree in
  Array.unsafe_set h.values slot value;
  (* Sift up a hole from the new leaf; write the entry once at the end. *)
  let i = ref h.size in
  h.size <- h.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 4 in
    let pt = Array.unsafe_get times p in
    if time < pt || (time <= pt && seq < Array.unsafe_get seqs p) then begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set slots !i (Array.unsafe_get slots p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

let push h ~time ~seq value = push_key h time seq value

let push_at h src i ~seq value = push_key h src.(i) seq value

let min_time h =
  if h.size = 0 then fail_empty "min_time";
  Array.unsafe_get h.times 0

(* Unboxed variant of [min_time h <= limit] for the engine's inner
   dispatch loop: a [bool] return crosses the module boundary in a
   register, where a [float] return would box on every event. *)
let next_at_or_before h limit =
  h.size > 0 && Array.unsafe_get h.times 0 <= limit

(* [next_at_or_before] with a strict bound: the windowed drain's
   horizon test. *)
let next_before h limit = h.size > 0 && Array.unsafe_get h.times 0 < limit

(* Whether [a]'s minimum precedes [b]'s in (time, seq) order: the
   windowed engine picks the partition holding the global minimum with
   it, reading both keys in place instead of returning them boxed. *)
let precedes a b =
  if a.size = 0 || b.size = 0 then fail_empty "precedes";
  let ta = Array.unsafe_get a.times 0 and tb = Array.unsafe_get b.times 0 in
  ta < tb || (ta <= tb && Array.unsafe_get a.seqs 0 < Array.unsafe_get b.seqs 0)

let min_seq h =
  if h.size = 0 then fail_empty "min_seq";
  Array.unsafe_get h.seqs 0

let pop h =
  if h.size = 0 then fail_empty "pop";
  let times = h.times and seqs = h.seqs and slots = h.slots in
  let top = Array.unsafe_get slots 0 in
  let v = Array.unsafe_get h.values top in
  (* Clear the popped value once and free its slot. *)
  Array.unsafe_set h.values top h.dummy;
  Array.unsafe_set h.free h.nfree top;
  h.nfree <- h.nfree + 1;
  let n = h.size - 1 in
  h.size <- n;
  if n > 0 then begin
    (* Sift the displaced last entry down from the root: promote the
       smallest child into the hole while it precedes the displaced
       entry, then write the entry once. *)
    let lt = Array.unsafe_get times n in
    let ls = Array.unsafe_get seqs n in
    let lslot = Array.unsafe_get slots n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (4 * !i) + 1 in
      if l >= n then continue := false
      else begin
        (* Smallest of the (up to four, contiguous) children. *)
        let c = ref l in
        let ct = ref (Array.unsafe_get times l) in
        let cs = ref (Array.unsafe_get seqs l) in
        let last = if l + 3 < n - 1 then l + 3 else n - 1 in
        for j = l + 1 to last do
          let jt = Array.unsafe_get times j in
          if jt < !ct || (jt <= !ct && Array.unsafe_get seqs j < !cs) then begin
            c := j;
            ct := jt;
            cs := Array.unsafe_get seqs j
          end
        done;
        if !ct < lt || (!ct <= lt && !cs < ls) then begin
          Array.unsafe_set times !i !ct;
          Array.unsafe_set seqs !i !cs;
          Array.unsafe_set slots !i (Array.unsafe_get slots !c);
          i := !c
        end
        else continue := false
      end
    done;
    Array.unsafe_set times !i lt;
    Array.unsafe_set seqs !i ls;
    Array.unsafe_set slots !i lslot
  end;
  v
