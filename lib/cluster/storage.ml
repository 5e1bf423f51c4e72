open Xenic_store

type hash =
  | Robinhood of bytes Robinhood.t
  | Chained of bytes Chained.t
  | Hopscotch of (int * bytes) Hopscotch.t

type shard_store = { hash : hash; ordered : bytes Btree.t }

(* Last-applied stamp per ordered key: ordered tables carry no
   per-object version, so concurrent log-apply workers order their
   writes by the log-append stamp instead. *)
type stamps = int Kv.Key_tbl.t

let write_ordered tree = function
  | Op.Put (k, v) -> Btree.insert tree k v
  | Op.Delete k -> ignore (Btree.delete tree k)

(* [stamp] is the log record's stamp (epoch at append, then the node's
   append count): apply only in stamp order so concurrent workers, or a
   promoted primary's second log, cannot regress a newer write. *)
let apply_ordered stamps tree op ~stamp =
  let k = Op.key op in
  let last = Option.value ~default:(-1) (Kv.Key_tbl.find_opt stamps k) in
  if stamp > last then begin
    Kv.Key_tbl.replace stamps k stamp;
    write_ordered tree op
  end

type t = {
  node : int;
  stores : shard_store option array;
  ordered_stamps : stamps;
}

let create cfg ~node ~table =
  let stores =
    Array.init cfg.Config.nodes (fun shard ->
        if Config.holds cfg ~shard ~node then
          Some { hash = table (); ordered = Btree.create () }
        else None)
  in
  { node; stores; ordered_stamps = Kv.Key_tbl.create 1024 }

let shard_store t ~shard =
  match t.stores.(shard) with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "Storage.shard_store: node %d does not hold shard %d"
           t.node shard)

let holds t ~shard = t.stores.(shard) <> None

let robinhood t ~shard =
  match (shard_store t ~shard).hash with
  | Robinhood r -> r
  | Chained _ | Hopscotch _ ->
      invalid_arg "Storage.robinhood: not a Robinhood table"

let read t k =
  let s = shard_store t ~shard:(Keyspace.shard k) in
  if Keyspace.ordered k then
    match Btree.find s.ordered k with Some v -> Some (v, 0) | None -> None
  else
    match s.hash with
    | Robinhood r -> Robinhood.find r k
    | Chained c -> Chained.find c k
    | Hopscotch h -> (
        match Hopscotch.find h k with
        | Some (seq, v) -> Some (v, seq)
        | None -> None)

let read_value t k =
  let s = shard_store t ~shard:(Keyspace.shard k) in
  if Keyspace.ordered k then Btree.find s.ordered k
  else
    match s.hash with
    | Robinhood r -> Robinhood.find_value r k
    | Chained c -> Chained.find_value c k
    | Hopscotch h -> (
        match Hopscotch.find h k with Some (_, v) -> Some v | None -> None)

let load t k v =
  let s = shard_store t ~shard:(Keyspace.shard k) in
  if Keyspace.ordered k then Btree.insert s.ordered k v
  else
    match s.hash with
    | Robinhood r -> ignore (Robinhood.insert r k v)
    | Chained c -> Chained.insert c k v
    | Hopscotch h -> Hopscotch.insert h k (1, v)

let clone_hash ~from t ~shard =
  match ((shard_store from ~shard).hash, (shard_store t ~shard).hash) with
  | Robinhood src, Robinhood dst -> Robinhood.clone_into ~src ~dst
  | Chained src, Chained dst -> Chained.clone_into ~src ~dst
  | Hopscotch src, Hopscotch dst -> Hopscotch.clone_into ~src ~dst
  | _ -> invalid_arg "Storage.clone_hash: mixed layouts"

(* A hash write: [seq] is the object version, never regress it. *)
let apply_hash hash op ~seq =
  match (hash, op) with
  | Robinhood r, Op.Put (k, v) -> Robinhood.put_newer r k v ~seq
  | Robinhood r, Op.Delete k -> Robinhood.delete_older r k ~seq
  | Chained c, Op.Put (k, v) -> Chained.put_newer c k v ~seq
  | Chained c, Op.Delete k -> Chained.delete_older c k ~seq
  | Hopscotch h, op -> (
      let k = Op.key op in
      match (Hopscotch.find h k, op) with
      | Some (cur, _), _ when cur >= seq -> ()
      | _, Op.Put (_, v) -> Hopscotch.insert h k (seq, v)
      | _, Op.Delete _ -> ignore (Hopscotch.delete h k))

let apply t op ~seq ~stamp =
  let k = Op.key op in
  let s = shard_store t ~shard:(Keyspace.shard k) in
  if Keyspace.ordered k then apply_ordered t.ordered_stamps s.ordered op ~stamp
  else apply_hash s.hash op ~seq

let write t op ~seq =
  let k = Op.key op in
  let s = shard_store t ~shard:(Keyspace.shard k) in
  if Keyspace.ordered k then write_ordered s.ordered op
  else apply_hash s.hash op ~seq

(* State transfer for node rejoin: make [t]'s copy of [shard] mirror
   [from]'s. The source must be quiescent (callers run this under the
   recovery commit fence, after the source's logs have drained), so the
   copy is a consistent snapshot. Versions are carried over, which
   keeps the destination's version-guarded [apply] idempotent against
   any stale records its own workers drain afterwards. *)
let sync_shard ~from t ~shard =
  let s = shard_store from ~shard in
  let d = shard_store t ~shard in
  let src = robinhood from ~shard and dst = robinhood t ~shard in
  (* Hash table: mirror the source entry set. Entries are applied in
     sorted key order so the destination's table layout is a function
     of the source's contents, not of either table's probe history. *)
  let src_entries = ref [] in
  Robinhood.iter src (fun k v seq ->
      src_entries := (k, v, seq) :: !src_entries);
  let src_entries =
    List.sort (fun (a, _, _) (b, _, _) -> compare a b) !src_entries
  in
  let src_keys = Hashtbl.create (List.length src_entries) in
  List.iter (fun (k, _, _) -> Hashtbl.replace src_keys k ()) src_entries;
  let stale = ref [] in
  Robinhood.iter dst (fun k _ _ ->
      if not (Hashtbl.mem src_keys k) then stale := k :: !stale);
  List.iter
    (fun k -> ignore (Robinhood.delete dst k))
    (List.sort compare !stale);
  List.iter
    (fun (k, v, seq) ->
      if not (Robinhood.update dst k v ~seq) then begin
        ignore (Robinhood.insert dst k v);
        ignore (Robinhood.update dst k v ~seq)
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
      match Kv.Key_tbl.find_opt from.ordered_stamps k with
      | Some stamp -> Kv.Key_tbl.replace t.ordered_stamps k stamp
      | None -> ())

