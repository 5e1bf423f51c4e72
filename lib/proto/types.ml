open Xenic_cluster

let owner_token ~coord ~seq = (coord * 1_000_000_000) + seq

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

let rec without ks = function
  | [] -> []
  | k :: rest -> if List.mem k ks then without ks rest else k :: without ks rest

let validate_set t = without t.write_set t.read_set

(* Shard walks over key lists: nothing is built unless the answer
   needs it. [insert_shard s l] adds a new [s] to the ascending list
   [l]. *)
let rec insert_shard s = function
  | x :: rest when x < s -> x :: insert_shard s rest
  | l -> s :: l

let rec add_shards key acc = function
  | [] -> acc
  | x :: rest ->
      let s = Keyspace.shard (key x) in
      add_shards key (if List.mem s acc then acc else insert_shard s acc) rest

let rec all_on_shard key s = function
  | [] -> true
  | x :: rest -> Keyspace.shard (key x) = s && all_on_shard key s rest

let single_shard t =
  match (t.read_set, t.write_set) with
  | k :: _, _ | [], k :: _ ->
      let s = Keyspace.shard k in
      if all_on_shard Fun.id s t.read_set && all_on_shard Fun.id s t.write_set
      then Some s
      else None
  | [], [] -> None

type outcome = Committed | Aborted

let pp_outcome fmt = function
  | Committed -> Format.pp_print_string fmt "committed"
  | Aborted -> Format.pp_print_string fmt "aborted"

let rec view_of values k =
  match values with
  | [] -> None
  | (k', v, _) :: rest -> if k' = k then v else view_of rest k

let rec lock_version k = function
  | [] -> 1
  | (k', seq) :: rest -> if k' = k then seq + 1 else lock_version k rest

let rec seq_ops_of ~lock_versions = function
  | [] -> []
  | op :: rest ->
      let v = (op, lock_version (Op.key op) lock_versions) in
      v :: seq_ops_of ~lock_versions rest

let rec on_shard key s = function
  | [] -> []
  | x :: rest ->
      if Keyspace.shard (key x) = s then x :: on_shard key s rest
      else on_shard key s rest

let rec groups key xs = function
  | [] -> []
  | s :: rest -> (s, on_shard key s xs) :: groups key xs rest

(* The common case, every element on one shard, returns the input list
   itself. *)
let group_by_shard key xs =
  match xs with
  | [] -> []
  | x :: rest ->
      let s = Keyspace.shard (key x) in
      if all_on_shard key s rest then [ (s, xs) ]
      else groups key xs (add_shards key [] xs)

let op_key (op, _) = Op.key op

let group_ops_by_shard seq_ops = group_by_shard op_key seq_ops
