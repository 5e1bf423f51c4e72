open Xenic_cluster

type txn_id = { coord : int; seq : int }

let pp_txn_id fmt t = Format.fprintf fmt "%d:%d" t.coord t.seq

let owner_token id = (id.coord * 1_000_000_000) + id.seq

let owner_coord owner = owner / 1_000_000_000

type view = Keyspace.t -> bytes option

type exec_result =
  | Done of Op.t list
  | More of { read : Keyspace.t list; lock : Keyspace.t list }

type t = {
  read_set : Keyspace.t list;
  write_set : Keyspace.t list;
  exec : view -> exec_result;
  host_exec_ns : float;
  state_bytes : int;
  ship_exec : bool;
}

let make_multishot ?(host_exec_ns = 150.0) ?(state_bytes = 0)
    ?(ship_exec = false) ~read_set ~write_set exec =
  { read_set; write_set; exec; host_exec_ns; state_bytes; ship_exec }

let make ?host_exec_ns ?state_bytes ?ship_exec ~read_set ~write_set exec =
  make_multishot ?host_exec_ns ?state_bytes ?ship_exec ~read_set ~write_set
    (fun view -> Done (exec view))

let validate_set t =
  List.filter (fun k -> not (List.mem k t.write_set)) t.read_set

let shards t =
  List.sort_uniq compare
    (List.map Keyspace.shard (t.read_set @ t.write_set))

let single_shard t = match shards t with [ s ] -> Some s | _ -> None

type outcome = Committed | Aborted

let pp_outcome fmt = function
  | Committed -> Format.pp_print_string fmt "committed"
  | Aborted -> Format.pp_print_string fmt "aborted"

let view_of values k =
  match List.find_opt (fun (k', _, _) -> k' = k) values with
  | Some (_, v, _) -> v
  | None -> None

let seq_ops_of ~lock_versions ops =
  List.map
    (fun op ->
      let k = Op.key op in
      match List.assoc_opt k lock_versions with
      | Some seq -> (op, seq + 1)
      | None -> (op, 1))
    ops

let group_ops_by_shard seq_ops =
  List.sort_uniq compare
    (List.map (fun (op, _) -> Keyspace.shard (Op.key op)) seq_ops)
  |> List.map (fun s ->
         (s, List.filter (fun (op, _) -> Keyspace.shard (Op.key op) = s) seq_ops))
