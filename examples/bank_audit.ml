(* Bank audit: drive the Smallbank workload at increasing load on
   Xenic, then audit the books — the sum of all balances must equal the
   initial deposits no matter how many concurrent transfers ran, and
   every backup replica must agree with its primary.

     dune exec examples/bank_audit.exe *)

open Xenic_cluster
open Xenic_proto
open Xenic_workload

let () =
  let p = { Smallbank.default_params with accounts_per_node = 2_000 } in
  let sys =
    System.create ~nodes:4 ~replication:3
      ~xenic:
        {
          Xenic_system.default_params with
          cache_capacity = 2 * p.Smallbank.accounts_per_node;
        }
      ~store_cfg:(Smallbank.store_cfg p)
      ~buckets:(Smallbank.chained_buckets p) System.Xenic
  in
  Smallbank.load p sys;
  let before = Smallbank.total_money p sys in
  Format.printf "loaded %d accounts per node; total deposits: %Ld@."
    p.Smallbank.accounts_per_node before;

  List.iter
    (fun concurrency ->
      let result =
        Driver.run sys
          (Smallbank.transfer_spec p ~nodes:4)
          ~concurrency ~target:3_000
      in
      Format.printf
        "concurrency %2d: %7.0f transfers/s/server, median %5.1fus, aborts \
         %.1f%%@."
        concurrency result.Driver.tput_per_server
        result.Driver.median_latency_us
        (100.0 *. result.Driver.abort_rate))
    [ 2; 8; 24 ];

  let after = Smallbank.total_money p sys in
  Format.printf "audit: total after transfers = %Ld (%s)@." after
    (if after = before then "books balance" else "MONEY LEAKED!");
  (* Replica audit: each backup copy of every shard must agree. *)
  let disagreements = ref 0 in
  for shard = 0 to 3 do
    let primary = Smallbank.total_money_replica p sys ~node:shard ~shard in
    List.iter
      (fun node ->
        if Smallbank.total_money_replica p sys ~node ~shard <> primary then
          incr disagreements)
      (Config.backups sys.System.cfg ~shard)
  done;
  Format.printf "replica audit: %d disagreements across all backups@."
    !disagreements;
  if after <> before || !disagreements > 0 then exit 1
