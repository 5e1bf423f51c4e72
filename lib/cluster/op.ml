type t = Put of Keyspace.t * bytes | Delete of Keyspace.t

let key = function Put (k, _) -> k | Delete k -> k

let bytes = function
  | Put (_, v) -> 8 + 8 + Bytes.length v  (* key + seq + payload *)
  | Delete _ -> 8 + 8
