(* May-suspend effect inference.

   Seeded by the simulator's primitive suspension points — the
   operations that park the calling process on the engine and resume it
   at a later simulated instant — and propagated backwards through the
   call graph to a fixpoint: a definition may suspend iff it references
   (so may call) anything that may suspend, including through the
   record-field closure channel ([field:*] nodes) and through qualified
   externs, so the inference still works on partial file sets (unit
   tests, per-directory runs).

   Deliberately NOT seeds:
   - [Engine.after]/[Engine.at]: they schedule a callback and return —
     the caller keeps running atomically.
   - [Process.spawn]: the child runs inline until its first suspension,
     but the spawning process itself never suspends.
   - [Ivar.fill], [Mailbox.send], [Resource.release]: wake others,
     never park the caller. *)

module StrSet = Callgraph.StrSet

let seeds =
  [
    ("Process", "suspend");
    ("Process", "sleep");
    ("Process", "parallel");
    ("Ivar", "read");
    ("Ivar", "read_timeout");
    ("Mailbox", "recv");
    ("Resource", "acquire");
    ("Resource", "use");
  ]

let seed_keys =
  List.concat_map
    (fun (m, fn) -> [ m ^ "." ^ fn; Callgraph.extern_key m fn ])
    seeds

let is_seed_key k = List.mem k seed_keys

(* Fixpoint: start from every node matching a seed, walk reference
   edges backwards until nothing new is marked. *)
let infer g =
  let nodes = Callgraph.nodes g in
  (* Reverse edges. *)
  let callers = Hashtbl.create 512 in
  Callgraph.StrSet.iter
    (fun src ->
      Callgraph.StrSet.iter
        (fun dst ->
          let cur =
            match Hashtbl.find_opt callers dst with
            | Some s -> s
            | None -> StrSet.empty
          in
          Hashtbl.replace callers dst (StrSet.add src cur))
        (Callgraph.callees g src))
    nodes;
  let marked = ref StrSet.empty in
  let work = Queue.create () in
  let mark k =
    if not (StrSet.mem k !marked) then begin
      marked := StrSet.add k !marked;
      Queue.add k work
    end
  in
  Callgraph.StrSet.iter (fun k -> if is_seed_key k then mark k) nodes;
  List.iter (fun k -> if Callgraph.find_def g k <> None then mark k) seed_keys;
  (* Extern seeds referenced by edges may not appear in [nodes] as
     sources; still mark them if anything points at them. *)
  (* Marking into a set: the fixpoint result is worklist-order-free. *)
  (* xenic-lint: allow HASHTBL-ORDER *)
  Hashtbl.iter (fun dst _ -> if is_seed_key dst then mark dst) callers;
  while not (Queue.is_empty work) do
    let k = Queue.pop work in
    match Hashtbl.find_opt callers k with
    | None -> ()
    | Some cs -> StrSet.iter mark cs
  done;
  !marked

(* The checked-in inventory: every analyzed definition inferred
   may-suspend, one [Module.fn] per line, sorted; the closure-channel
   field names that carry suspension follow under a [field:] prefix.
   Names only — no file/line — so the ratchet is stable under
   unrelated line churn and only moves when the suspension surface
   itself moves. *)
let inventory g =
  let s = infer g in
  let defs =
    Callgraph.defs g
    |> List.filter (fun d -> StrSet.mem d.Callgraph.d_key s)
    |> List.map (fun d -> d.Callgraph.d_key)
    |> List.sort_uniq String.compare
  in
  let fields =
    StrSet.elements s
    |> List.filter (fun k ->
           String.length k > 6 && String.sub k 0 6 = "field:")
    |> List.sort String.compare
  in
  defs @ fields

let may_suspend s key = StrSet.mem key s
