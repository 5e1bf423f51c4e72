let msg_header_b = 16 (* txn id, opcode, shard, count *)

let execute_req_b ~n_reads ~n_locks ~state_bytes =
  msg_header_b + (8 * n_reads) + (8 * n_locks) + state_bytes

let rec values_b acc = function
  | [] -> acc
  | (_, v, _) :: rest ->
      values_b (acc + 8 + 8 + match v with Some b -> Bytes.length b | None -> 0) rest

let execute_resp_b ~values = msg_header_b + values_b 0 values

let validate_req_b ~n_checks = msg_header_b + (16 * n_checks)

let small_resp_b = msg_header_b

let rec ops_b acc = function
  | [] -> acc
  | (op, _) :: rest -> ops_b (acc + Xenic_cluster.Op.bytes op) rest

let write_ops_b ~ops = msg_header_b + ops_b 0 ops

let abort_b ~n_locks = msg_header_b + (8 * n_locks)

let log_record_b ~ops = 24 + write_ops_b ~ops

let read_req_b = msg_header_b + 8

let lock_req_b = msg_header_b + 8
