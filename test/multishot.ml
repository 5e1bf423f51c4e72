(* The pointer-chasing multi-shot workload (§4.2 step 3): the write key
   is discovered by reading a pointer object, so execution needs a
   second EXECUTE round. Keys live in Retwis table 0: pointers are ids
   0–49 of any shard, their targets ids 100–149 of the next shard, each
   holding a 64-bit counter that a chase increments. *)

open Xenic_sim
open Xenic_cluster
open Xenic_proto
open Xenic_workload

let key ~shard ~id = Keyspace.make ~shard ~table:0 ~ordered:false ~id

let decode v = Bytes.get_int64_le v 0

let encode c =
  let b = Bytes.make 64 '\000' in
  Bytes.set_int64_le b 0 c;
  b

(* The pointer names the target: id 100 + (pointer value mod 50), on
   the shard after the pointer's. *)
let spec ~nodes =
  {
    Driver.name = "multishot";
    generate =
      (fun rng ~node ->
        ignore node;
        let ptr_shard = Rng.int rng nodes in
        let ptr = key ~shard:ptr_shard ~id:(Rng.int rng 50) in
        ( "chase",
          Types.make_multishot ~ship_exec:true ~read_set:[ ptr ] ~write_set:[]
            (fun view ->
              match view ptr with
              | None -> Types.Done []
              | Some pv -> (
                  let target =
                    key
                      ~shard:((ptr_shard + 1) mod nodes)
                      ~id:(100 + (Int64.to_int (decode pv) mod 50))
                  in
                  match view target with
                  | None -> Types.More { read = [ target ]; lock = [ target ] }
                  | Some tv ->
                      Types.Done
                        [ Op.Put (target, encode (Int64.add (decode tv) 1L)) ]))
        ));
  }

(* The sum of every target's counter: the committed chases. *)
let total (sys : System.t) =
  let total = ref 0L in
  for shard = 0 to sys.System.cfg.Config.nodes - 1 do
    for id = 100 to 149 do
      match System.peek sys ~node:shard (key ~shard ~id) with
      | Some v -> total := Int64.add !total (decode v)
      | None -> ()
    done
  done;
  !total
