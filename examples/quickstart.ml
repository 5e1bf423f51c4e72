(* Quickstart: build a 4-node Xenic cluster, load a few objects, and
   run distributed read-modify-write transactions through the full
   SmartNIC commit protocol.

     dune exec examples/quickstart.exe *)

open Xenic_sim
open Xenic_cluster
open Xenic_proto

let () =
  (* A 4-server Xenic cluster with 3-way replication on the calibrated
     LiquidIO/CX5 testbed model. The store is sized for a few objects
     per shard: 16 Robinhood segments of 64 slots for Xenic (and 64
     chained buckets, had we picked an RDMA baseline). *)
  let sys =
    System.create ~nodes:4 ~replication:3 ~store_cfg:(16, 64, Some 8)
      ~buckets:64 System.Xenic
  in
  let engine = sys.System.engine in

  (* Keys name a (shard, table, id); values are bytes. *)
  let key ~shard ~id = Keyspace.make ~shard ~table:0 ~ordered:false ~id in
  for shard = 0 to 3 do
    for id = 0 to 9 do
      sys.System.load (key ~shard ~id)
        (Bytes.of_string (Printf.sprintf "hello-%d-%d" shard id))
    done
  done;
  sys.System.seal ();

  (* A transaction declares its read and write sets and an execution
     function from the read view to write operations. This one moves a
     suffix between two objects on different shards. *)
  let a = key ~shard:1 ~id:3 and b = key ~shard:2 ~id:7 in
  let txn =
    Types.make ~ship_exec:true ~read_set:[ a; b ] ~write_set:[ a; b ]
      (fun view ->
        let get k =
          match view k with Some v -> Bytes.to_string v | None -> "?"
        in
        [
          Op.Put (a, Bytes.of_string (get b ^ "!"));
          Op.Put (b, Bytes.of_string (get a ^ "!"));
        ])
  in

  (* Transactions are simulation processes: drive them from a spawned
     process and run the engine. *)
  let outcomes = ref [] in
  Process.spawn engine (fun () ->
      for _ = 1 to 3 do
        let outcome = sys.System.run_txn ~node:0 txn in
        outcomes := (Engine.now engine, outcome) :: !outcomes
      done);
  ignore (Engine.run engine);
  Process.spawn engine (fun () -> Control.quiesce sys.System.control);
  ignore (Engine.run engine);

  List.iter
    (fun (t, outcome) ->
      Format.printf "t=%7.0fns  %a@." t Types.pp_outcome outcome)
    (List.rev !outcomes);
  let show k =
    match System.peek sys ~node:(Keyspace.shard k) k with
    | Some v -> Bytes.to_string v
    | None -> "<absent>"
  in
  Format.printf "a = %s@.b = %s@." (show a) (show b);
  let nic_cores =
    List.filter_map
      (fun (name, r) ->
        if String.ends_with ~suffix:"/nic-cores" name then
          Some (Resource.utilization r)
        else None)
      (sys.System.resources ())
  in
  Format.printf "wire: %d messages, NIC cores %.1f%% busy@."
    (int_of_float
       (Xenic_stats.Counter.get (Metrics.counters (sys.System.metrics ())) "msgs"))
    (100.0 *. List.fold_left ( +. ) 0.0 nic_cores
    /. float_of_int (List.length nic_cores))
