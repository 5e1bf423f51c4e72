type t = { nodes : int; replication : int }

let make ~nodes ~replication =
  if nodes <= 0 then invalid_arg "Config.make: nodes";
  (* One shard per node, and the key layout packs the shard into 8
     bits (Keyspace.max_shard): more nodes than shard ids would wrap
     silently in every key. *)
  if nodes > Keyspace.max_shard + 1 then
    invalid_arg
      (Printf.sprintf "Config.make: nodes must be <= %d (8-bit shard field)"
         (Keyspace.max_shard + 1));
  if replication <= 0 || replication > nodes then
    invalid_arg "Config.make: replication must be in [1, nodes]";
  { nodes; replication }

let primary t ~shard =
  if shard < 0 || shard >= t.nodes then invalid_arg "Config.primary";
  shard

let backups t ~shard =
  List.init (t.replication - 1) (fun i -> (shard + i + 1) mod t.nodes)

let replicas t ~shard = primary t ~shard :: backups t ~shard

let holds t ~shard ~node = List.mem node (replicas t ~shard)

(* Contiguous blocks: nodes [0, n/p) on partition 0, and so on, with
   the first (n mod p) partitions one node larger. Contiguity keeps a
   node's primary shard and the shards it backs up (ring successors)
   mostly co-partitioned, which minimizes cross-partition replication
   traffic under the parallel engine. *)
let partition_of_node t ~partitions ~node =
  if partitions <= 0 then
    invalid_arg "Config.partition_of_node: partitions must be positive";
  if node < 0 || node >= t.nodes then
    invalid_arg
      (Printf.sprintf "Config.partition_of_node: node %d outside [0, %d)" node
         t.nodes);
  if partitions >= t.nodes then node
  else begin
    let base = t.nodes / partitions and extra = t.nodes mod partitions in
    (* The first [extra] partitions hold [base + 1] nodes each. *)
    let boundary = extra * (base + 1) in
    if node < boundary then node / (base + 1)
    else extra + ((node - boundary) / base)
  end
