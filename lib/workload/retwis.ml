open Xenic_sim
open Xenic_cluster
open Xenic_proto

type params = { keys_per_node : int; zipf_theta : float; value_b : int }

let default_params = { keys_per_node = 20_000; zipf_theta = 0.5; value_b = 64 }

let table = 0

let store_cfg p =
  let seg_size = 64 in
  let slots = int_of_float (float_of_int p.keys_per_node /. 0.75) in
  let segments = max 4 ((slots + seg_size - 1) / seg_size) in
  (segments, seg_size, Some 8)

let chained_buckets p = max 64 (p.keys_per_node / 6)

(* Values embed an i64 counter so tests can verify exactly-once
   read-modify-write semantics; the rest is opaque payload. *)
let encode p counter =
  let b = Bytes.make p.value_b '\000' in
  Bytes.set_int64_le b 0 counter;
  b

let decode v = Bytes.get_int64_le v 0

(* Zipf rank -> key spread across shards round-robin so hot keys don't
   all live on one node. *)
let key_of_rank ~nodes rank =
  let shard = rank mod nodes in
  let id = rank / nodes in
  Keyspace.make ~shard ~table ~ordered:false ~id

let load p (sys : System.t) =
  let nodes = sys.System.cfg.Config.nodes in
  for shard = 0 to nodes - 1 do
    for id = 0 to p.keys_per_node - 1 do
      sys.System.load
        (Keyspace.make ~shard ~table ~ordered:false ~id)
        (encode p 0L)
    done
  done;
  sys.System.seal ()

let exec_cost = 150.0

let mk ~read_set ~write_set exec =
  Types.make ~host_exec_ns:exec_cost ~state_bytes:8 ~ship_exec:true ~read_set
    ~write_set exec

let distinct_keys z rng ~nodes n =
  let rec go acc remaining guard =
    if remaining = 0 || guard = 0 then acc
    else
      let k = key_of_rank ~nodes (Zipf.sample z rng) in
      if List.mem k acc then go acc remaining (guard - 1)
      else go (k :: acc) (remaining - 1) (guard - 1)
  in
  go [] n (n * 20)

let bump p view k =
  match view k with
  | Some v -> Op.Put (k, encode p (Int64.add (decode v) 1L))
  | None -> Op.Put (k, encode p 1L)

(* GetTimeline: 1-10 reads, no writes. *)
let txn_get_timeline p z rng ~nodes =
  ignore p;
  let n = 1 + Rng.int rng 10 in
  let keys = distinct_keys z rng ~nodes n in
  mk ~read_set:keys ~write_set:[] (fun _ -> [])

(* Follow: read and update two user objects. *)
let txn_follow p z rng ~nodes =
  let keys = distinct_keys z rng ~nodes 2 in
  mk ~read_set:keys ~write_set:keys (fun view ->
      List.map (bump p view) keys)

(* PostTweet: read-modify-write 3 objects, blind-write 2 more. *)
let txn_post_tweet p z rng ~nodes =
  let rmw = distinct_keys z rng ~nodes 3 in
  let blind =
    List.filter (fun k -> not (List.mem k rmw)) (distinct_keys z rng ~nodes 2)
  in
  mk ~read_set:rmw ~write_set:(rmw @ blind) (fun view ->
      List.map (bump p view) rmw
      @ List.map (fun k -> Op.Put (k, encode p 1L)) blind)

(* AddUser: read one object, write three. *)
let txn_add_user p z rng ~nodes =
  let rmw = distinct_keys z rng ~nodes 1 in
  let blind =
    List.filter (fun k -> not (List.mem k rmw)) (distinct_keys z rng ~nodes 2)
  in
  mk ~read_set:rmw ~write_set:(rmw @ blind) (fun view ->
      List.map (bump p view) rmw
      @ List.map (fun k -> Op.Put (k, encode p 1L)) blind)

let spec p ~nodes =
  let z = Zipf.create ~n:(p.keys_per_node * nodes) ~theta:p.zipf_theta in
  {
    Driver.name = "retwis";
    generate =
      (fun rng ~node ->
        ignore node;
        let r = Rng.float rng in
        if Float.compare r 0.05 < 0 then ("add_user", txn_add_user p z rng ~nodes)
        else if Float.compare r 0.20 < 0 then ("follow", txn_follow p z rng ~nodes)
        else if Float.compare r 0.50 < 0 then
          ("post_tweet", txn_post_tweet p z rng ~nodes)
        else ("get_timeline", txn_get_timeline p z rng ~nodes));
  }

let increment_spec p ~nodes =
  let z = Zipf.create ~n:(p.keys_per_node * nodes) ~theta:p.zipf_theta in
  {
    Driver.name = "retwis-increment";
    generate =
      (fun rng ~node ->
        ignore node;
        let k = key_of_rank ~nodes (Zipf.sample z rng) in
        ( "increment",
          mk ~read_set:[ k ] ~write_set:[ k ] (fun view ->
              [ bump p view k ]) ));
  }

(* The top Zipf ranks double as the "celebrity" accounts targeted by
   the open-loop flash-crowd arrivals. *)
let celebrity_ranks = 16

let openloop_spec p =
  (* The spec's zeta sums at its own theta, computed once for every
     coordinator of every system it makes. Only [make] touches [memo],
     and [make] runs at setup, on one domain. *)
  let memo = Zipf.cache () in
  {
    Openloop.name = "retwis-open";
    make =
      (fun ~nodes ~node ->
        ignore node;
        let n = p.keys_per_node * nodes in
        ignore (Zipf.create_cached memo ~n ~theta:p.zipf_theta);
        (* Per-coordinator zeta cache, seeded from [memo]: phases
           revisit the same few thetas, so after each theta's first
           arrival the Zipf rebuild is a table hit. One cache per
           coordinator — never shared across engine partitions. *)
        let cache = Zipf.copy_cache memo in
        fun rng ~theta ~hot ->
          let z = Zipf.create_cached cache ~n ~theta in
          if hot then begin
            (* Celebrity flash crowd: pile onto one of the top-ranked
               accounts — mostly timeline reads, plus a slice of
               interactions that read-modify-write the celebrity object
               itself, which is what makes the crowd contend. *)
            let celeb = key_of_rank ~nodes (Rng.int rng celebrity_ranks) in
            if Float.compare (Rng.float rng) 0.8 < 0 then
              let extra =
                List.filter (fun k -> k <> celeb) (distinct_keys z rng ~nodes 2)
              in
              ( "hot_timeline",
                mk ~read_set:(celeb :: extra) ~write_set:[] (fun _ -> []) )
            else
              ( "hot_interact",
                mk ~read_set:[ celeb ] ~write_set:[ celeb ] (fun view ->
                    [ bump p view celeb ]) )
          end
          else
            let r = Rng.float rng in
            if Float.compare r 0.05 < 0 then
              ("add_user", txn_add_user p z rng ~nodes)
            else if Float.compare r 0.20 < 0 then
              ("follow", txn_follow p z rng ~nodes)
            else if Float.compare r 0.50 < 0 then
              ("post_tweet", txn_post_tweet p z rng ~nodes)
            else ("get_timeline", txn_get_timeline p z rng ~nodes));
  }

let total_count p (sys : System.t) =
  let nodes = sys.System.cfg.Config.nodes in
  let total = ref 0L in
  for shard = 0 to nodes - 1 do
    for id = 0 to p.keys_per_node - 1 do
      match
        System.peek sys ~node:shard
          (Keyspace.make ~shard ~table ~ordered:false ~id)
      with
      | Some v -> total := Int64.add !total (decode v)
      | None -> ()
    done
  done;
  !total
