(* Quickstart: build a 4-node Xenic cluster, load a few objects, and
   run distributed read-modify-write transactions through the full
   SmartNIC commit protocol.

     dune exec examples/quickstart.exe *)

open Xenic_sim
open Xenic_cluster
open Xenic_proto

let () =
  (* A 4-server cluster with 3-way replication on the calibrated
     LiquidIO/CX5 testbed model. *)
  let engine = Engine.create () in
  let cfg = Config.make ~nodes:4 ~replication:3 in
  let xenic =
    Xenic_system.create engine Xenic_params.Hw.testbed cfg
      { Xenic_system.default_params with segments = 16; seg_size = 64 }
  in
  let sys = System.of_xenic xenic in

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
  Process.spawn engine (fun () -> sys.System.quiesce ());
  ignore (Engine.run engine);

  List.iter
    (fun (t, outcome) ->
      Format.printf "t=%7.0fns  %a@." t Types.pp_outcome outcome)
    (List.rev !outcomes);
  let show k =
    match sys.System.peek ~node:(Keyspace.shard k) k with
    | Some v -> Bytes.to_string v
    | None -> "<absent>"
  in
  Format.printf "a = %s@.b = %s@." (show a) (show b);
  Format.printf "wire: %d messages, NIC cores %.1f%% busy@."
    (int_of_float
       (Xenic_stats.Counter.get (Metrics.counters (sys.System.metrics ())) "msgs"))
    (100.0 *. Xenic_system.nic_core_utilization xenic)
