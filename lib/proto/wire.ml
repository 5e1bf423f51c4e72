let msg_header_b = 16 (* txn id, opcode, shard, count *)

let execute_req_b ~n_reads ~n_locks ~state_bytes =
  msg_header_b + (8 * n_reads) + (8 * n_locks) + state_bytes

let execute_resp_b ~value_bytes =
  msg_header_b + List.fold_left (fun acc v -> acc + 8 + 8 + v) 0 value_bytes

let validate_req_b ~n_checks = msg_header_b + (16 * n_checks)

let small_resp_b = msg_header_b

let write_ops_b ~ops =
  msg_header_b + List.fold_left (fun acc op -> acc + Xenic_cluster.Op.bytes op) 0 ops

let abort_b ~n_locks = msg_header_b + (8 * n_locks)

let log_record_b ~ops = 24 + write_ops_b ~ops

let read_req_b = msg_header_b + 8

let lock_req_b = msg_header_b + 8
