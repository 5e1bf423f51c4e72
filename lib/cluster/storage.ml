open Xenic_store

type shard_store = { hash : bytes Robinhood.t; ordered : bytes Btree.t }

type t = {
  node : int;
  stores : shard_store option array;
  (* Last-applied stamp per ordered key: ordered tables carry no
     per-object version, so concurrent log-apply workers order their
     writes by the log-append stamp instead. *)
  ordered_stamps : (Keyspace.t, int) Hashtbl.t;
}

let create cfg ~node ~segments ~seg_size ~d_max =
  let stores =
    Array.init cfg.Config.nodes (fun shard ->
        if Config.holds cfg ~shard ~node then
          Some
            {
              hash =
                Robinhood.create ~segments ~seg_size ~d_max ~vsize:Bytes.length;
              ordered = Btree.create ();
            }
        else None)
  in
  { node; stores; ordered_stamps = Hashtbl.create 1024 }

let node t = t.node

let shard_store t ~shard =
  match t.stores.(shard) with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "Storage.shard_store: node %d does not hold shard %d"
           t.node shard)

let holds t ~shard = t.stores.(shard) <> None

let read t k =
  let s = shard_store t ~shard:(Keyspace.shard k) in
  if Keyspace.ordered k then
    match Btree.find s.ordered k with Some v -> Some (v, 0) | None -> None
  else Robinhood.find s.hash k

let apply t op ~seq =
  let k = Op.key op in
  let s = shard_store t ~shard:(Keyspace.shard k) in
  if Keyspace.ordered k then begin
    (* [seq] is the log-append stamp: apply only in stamp order so
       concurrent workers cannot regress a newer write. *)
    let last = Option.value ~default:(-1) (Hashtbl.find_opt t.ordered_stamps k) in
    if seq > last then begin
      Hashtbl.replace t.ordered_stamps k seq;
      match op with
      | Op.Put (_, v) -> Btree.insert s.ordered k v
      | Op.Delete _ -> ignore (Btree.delete s.ordered k)
    end
  end
  else
    (* [seq] is the object version: never regress. *)
    match op with
    | Op.Put (_, v) -> Robinhood.put_newer s.hash k v ~seq
    | Op.Delete _ -> Robinhood.delete_older s.hash k ~seq

let load t k v =
  let s = shard_store t ~shard:(Keyspace.shard k) in
  if Keyspace.ordered k then Btree.insert s.ordered k v
  else ignore (Robinhood.insert s.hash k v)

(* State transfer for node rejoin: make [t]'s copy of [shard] mirror
   [from]'s. The source must be quiescent (callers run this under the
   recovery commit fence, after the source's logs have drained), so the
   copy is a consistent snapshot. Versions are carried over, which
   keeps the destination's version-guarded [apply] idempotent against
   any stale records its own workers drain afterwards. *)
let sync_shard ~from t ~shard =
  let s = shard_store from ~shard in
  let d = shard_store t ~shard in
  (* Hash table: mirror the source entry set. Entries are applied in
     sorted key order so the destination's table layout is a function
     of the source's contents, not of either table's probe history. *)
  let src_entries = ref [] in
  Robinhood.iter s.hash (fun k v seq -> src_entries := (k, v, seq) :: !src_entries);
  let src_entries =
    List.sort (fun (a, _, _) (b, _, _) -> compare a b) !src_entries
  in
  let src_keys = Hashtbl.create (List.length src_entries) in
  List.iter (fun (k, _, _) -> Hashtbl.replace src_keys k ()) src_entries;
  let stale = ref [] in
  Robinhood.iter d.hash (fun k _ _ ->
      if not (Hashtbl.mem src_keys k) then stale := k :: !stale);
  List.iter
    (fun k -> ignore (Robinhood.delete d.hash k))
    (List.sort compare !stale);
  List.iter
    (fun (k, v, seq) ->
      if not (Robinhood.update d.hash k v ~seq) then begin
        ignore (Robinhood.insert d.hash k v);
        ignore (Robinhood.update d.hash k v ~seq)
      end)
    src_entries;
  (* Ordered table: mirror the shard's key range, dropping destination
     keys the source deleted, and carry the apply stamps over so
     stamp-ordered log replay cannot regress a copied write. Range
     iteration is in ascending key order — deterministic, and no
     Hashtbl iteration is involved. *)
  let lo = Keyspace.make ~shard ~table:0 ~ordered:true ~id:0 in
  let hi =
    Keyspace.make ~shard ~table:Keyspace.max_table ~ordered:true
      ~id:Keyspace.max_id
  in
  let stale_ordered =
    Btree.fold_range d.ordered ~lo ~hi ~init:[] (fun acc k _ ->
        if Btree.mem s.ordered k then acc else k :: acc)
  in
  List.iter (fun k -> ignore (Btree.delete d.ordered k)) (List.rev stale_ordered);
  Btree.iter_range s.ordered ~lo ~hi (fun k v ->
      Btree.insert d.ordered k v;
      match Hashtbl.find_opt from.ordered_stamps k with
      | Some stamp -> Hashtbl.replace t.ordered_stamps k stamp
      | None -> ())

let iter_hash t ~shard f =
  let s = shard_store t ~shard in
  Robinhood.iter s.hash f
