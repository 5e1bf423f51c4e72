(* Replica checks over the one replica store every stack keeps
   ([Control.t]'s per-node [Storage.t]): the keys a run touched, one
   replica's rows, and the replicas of a shard that disagree. *)

open Xenic_cluster
open Xenic_proto

(* [sys] with every key it loads, and every key a transaction's
   execution writes, noted in the returned set. Every row a store holds
   was loaded or written, so the set covers it; only the Robinhood
   table can be iterated, which is why the set is kept. *)
let noting_keys (sys : System.t) =
  let keys = Hashtbl.create 4096 in
  let note k = Hashtbl.replace keys k () in
  let load k v =
    note k;
    sys.System.load k v
  in
  let run_txn ~node (txn : Types.t) =
    let exec view =
      match txn.Types.exec view with
      | Types.Done ops as r ->
          List.iter (fun op -> note (Op.key op)) ops;
          r
      | r -> r
    in
    sys.System.run_txn ~node { txn with Types.exec }
  in
  ({ sys with System.load; run_txn }, keys)

(* The noted keys, sorted. *)
let sorted keys = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) keys [])

(* [node]'s hash rows (key, version, value) of [shard] over the sorted
   [keys], present ones only. *)
let hash_rows sys keys ~node ~shard =
  List.filter_map
    (fun k ->
      if Keyspace.ordered k || Keyspace.shard k <> shard then None
      else
        Option.map
          (fun (v, seq) -> (k, seq, v))
          (Storage.read (System.storage sys ~node) k))
    keys

(* [node]'s B+ tree rows of [shard], in key order. *)
let ordered_rows sys ~node ~shard =
  List.rev
    (Xenic_store.Btree.fold_range
       (System.ordered sys ~node ~shard)
       ~lo:min_int ~hi:max_int ~init:[]
       (fun acc k v -> (k, v) :: acc))

(* One line per replica whose hash rows (over [keys]) or ordered rows
   differ from its shard's first replica's; [] = converged. *)
let divergences (sys : System.t) keys =
  let cfg = sys.System.cfg in
  let keys = sorted keys in
  List.concat_map
    (fun shard ->
      match Config.replicas cfg ~shard with
      | [] -> []
      | first :: rest ->
          let hash node = hash_rows sys keys ~node ~shard
          and ordered node = ordered_rows sys ~node ~shard in
          let h0 = hash first and o0 = ordered first in
          List.filter_map
            (fun node ->
              let what =
                (if hash node <> h0 then [ "hash rows" ] else [])
                @ if ordered node <> o0 then [ "ordered rows" ] else []
              in
              if what = [] then None
              else
                Some
                  (Printf.sprintf "%s shard %d: node %d's %s differ from node %d's"
                     sys.System.name shard node (String.concat " and " what)
                     first))
            rest)
    (List.init cfg.Config.nodes Fun.id)
