(** Wire-size accounting for protocol messages. Every request/response
    computes its payload bytes here, so bandwidth effects (the dominant
    term in the paper's throughput results) flow from one place. *)

(** EXECUTE: header + 8B per key (reads and locks). *)
val execute_req_b : n_reads:int -> n_locks:int -> state_bytes:int -> int

(** EXECUTE response: header + (key + seq + value) per read. *)
val execute_resp_b : value_bytes:int list -> int

(** VALIDATE: header + (key + seq) per check. *)
val validate_req_b : n_checks:int -> int

val small_resp_b : int

(** LOG / COMMIT: header + serialized ops. *)
val write_ops_b : ops:Xenic_cluster.Op.t list -> int

(** ABORT (lock release): header + key per lock. *)
val abort_b : n_locks:int -> int

(** Log record size as appended to host memory (adds record framing). *)
val log_record_b : ops:Xenic_cluster.Op.t list -> int

(** Single-key one-sided/RPC operations for the non-smart-ops baseline
    and the RDMA systems. *)
val read_req_b : int

val lock_req_b : int
