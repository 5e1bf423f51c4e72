open Xenic_sim
open Xenic_cluster
open Xenic_proto

type params = { accounts_per_node : int; hotspot_frac : float }

let default_params = { accounts_per_node = 20_000; hotspot_frac = 0.04 }

(* Share of accesses aimed at the hot accounts (§5.5). *)
let hotspot_prob = 0.9

let checking_table = 0

let savings_table = 1

let initial_balance = 1_000L

(* 12-byte account objects: 8B balance + 4B pad (§5.5). *)
let value_b = 12

let encode balance =
  let b = Bytes.make value_b '\000' in
  (* xenic-lint: allow BYTES-MUTATION — a fresh buffer *)
  Bytes.set_int64_le b 0 balance;
  b

let decode v = Bytes.get_int64_le v 0

let key ~table ~shard ~account =
  Keyspace.make ~shard ~table ~ordered:false ~id:account

let store_cfg p =
  let keys_per_shard = 2 * p.accounts_per_node in
  let seg_size = 64 in
  let slots = int_of_float (float_of_int keys_per_shard /. 0.75) in
  let segments = max 4 ((slots + seg_size - 1) / seg_size) in
  (segments, seg_size, Some 8)

let chained_buckets p =
  let keys_per_shard = 2 * p.accounts_per_node in
  max 64 (keys_per_shard / 6)

(* Every balance starts as the same value: the store never mutates one
   ({!System.t.load}), so one encoding serves every key. *)
let load p (sys : System.t) =
  let nodes = sys.System.cfg.Config.nodes in
  let v = encode initial_balance in
  for shard = 0 to nodes - 1 do
    for account = 0 to p.accounts_per_node - 1 do
      sys.System.load (key ~table:checking_table ~shard ~account) v;
      sys.System.load (key ~table:savings_table ~shard ~account) v
    done
  done;
  sys.System.seal ()

let pick_account p rng =
  let hot_n =
    max 1 (int_of_float (float_of_int p.accounts_per_node *. p.hotspot_frac))
  in
  if Rng.float rng < hotspot_prob then Rng.int rng hot_n
  else Rng.int rng p.accounts_per_node

let pick_shard rng ~nodes = Rng.int rng nodes

let balance_of view k =
  match view k with Some v -> decode v | None -> 0L

let exec_cost = 200.0

let mk ?(ro = false) ~read_set ~write_set exec =
  ignore ro;
  Types.make ~host_exec_ns:exec_cost ~state_bytes:16 ~ship_exec:true ~read_set
    ~write_set exec

(* -- Transaction types --------------------------------------------- *)

let txn_balance p rng ~nodes =
  let s = pick_shard rng ~nodes and a = pick_account p rng in
  let kc = key ~table:checking_table ~shard:s ~account:a in
  let ks = key ~table:savings_table ~shard:s ~account:a in
  mk ~ro:true ~read_set:[ kc; ks ] ~write_set:[] (fun _view -> [])

let txn_deposit_checking p rng ~nodes =
  let s = pick_shard rng ~nodes and a = pick_account p rng in
  let kc = key ~table:checking_table ~shard:s ~account:a in
  let amount = Int64.of_int (1 + Rng.int rng 100) in
  mk ~read_set:[ kc ] ~write_set:[ kc ] (fun view ->
      [ Op.Put (kc, encode (Int64.add (balance_of view kc) amount)) ])

let txn_transact_savings p rng ~nodes =
  let s = pick_shard rng ~nodes and a = pick_account p rng in
  let ks = key ~table:savings_table ~shard:s ~account:a in
  let amount = Int64.of_int (1 + Rng.int rng 100) in
  mk ~read_set:[ ks ] ~write_set:[ ks ] (fun view ->
      [ Op.Put (ks, encode (Int64.add (balance_of view ks) amount)) ])

let txn_amalgamate p rng ~nodes =
  let s1 = pick_shard rng ~nodes and a1 = pick_account p rng in
  let s2 = pick_shard rng ~nodes and a2 = pick_account p rng in
  let kc1 = key ~table:checking_table ~shard:s1 ~account:a1 in
  let ks1 = key ~table:savings_table ~shard:s1 ~account:a1 in
  let kc2 = key ~table:checking_table ~shard:s2 ~account:a2 in
  if kc1 = kc2 then
    (* Self-amalgamate: move savings into checking. *)
    mk ~read_set:[ kc1; ks1 ] ~write_set:[ kc1; ks1 ] (fun view ->
        let c = balance_of view kc1 and s = balance_of view ks1 in
        [ Op.Put (ks1, encode 0L); Op.Put (kc1, encode (Int64.add c s)) ])
  else
    mk
      ~read_set:[ kc1; ks1; kc2 ]
      ~write_set:[ kc1; ks1; kc2 ]
      (fun view ->
        let c1 = balance_of view kc1
        and s1v = balance_of view ks1
        and c2 = balance_of view kc2 in
        [
          Op.Put (kc1, encode 0L);
          Op.Put (ks1, encode 0L);
          Op.Put (kc2, encode Int64.(add c2 (add c1 s1v)));
        ])

let txn_write_check p rng ~nodes =
  let s = pick_shard rng ~nodes and a = pick_account p rng in
  let kc = key ~table:checking_table ~shard:s ~account:a in
  let ks = key ~table:savings_table ~shard:s ~account:a in
  let amount = Int64.of_int (1 + Rng.int rng 100) in
  mk ~read_set:[ kc; ks ] ~write_set:[ kc ] (fun view ->
      let c = balance_of view kc and sv = balance_of view ks in
      let penalty =
        if Int64.(add c sv) < amount then 1L else 0L
      in
      [ Op.Put (kc, encode Int64.(sub (sub c amount) penalty)) ])

let txn_send_payment p rng ~nodes =
  let s1 = pick_shard rng ~nodes and a1 = pick_account p rng in
  let s2 = pick_shard rng ~nodes and a2 = pick_account p rng in
  let k1 = key ~table:checking_table ~shard:s1 ~account:a1 in
  let k2 = key ~table:checking_table ~shard:s2 ~account:a2 in
  let amount = Int64.of_int (1 + Rng.int rng 50) in
  if k1 = k2 then
    mk ~read_set:[ k1 ] ~write_set:[ k1 ] (fun view ->
        [ Op.Put (k1, encode (balance_of view k1)) ])
  else
    mk ~read_set:[ k1; k2 ] ~write_set:[ k1; k2 ] (fun view ->
        let b1 = balance_of view k1 and b2 = balance_of view k2 in
        [
          Op.Put (k1, encode (Int64.sub b1 amount));
          Op.Put (k2, encode (Int64.add b2 amount));
        ])

let spec p ~nodes =
  {
    Driver.name = "smallbank";
    generate =
      (fun rng ~node ->
        ignore node;
        let r = Rng.float rng in
        if Float.compare r 0.15 < 0 then ("balance", txn_balance p rng ~nodes)
        else if Float.compare r 0.40 < 0 then
          ("deposit_checking", txn_deposit_checking p rng ~nodes)
        else if Float.compare r 0.65 < 0 then
          ("transact_savings", txn_transact_savings p rng ~nodes)
        else if Float.compare r 0.80 < 0 then
          ("amalgamate", txn_amalgamate p rng ~nodes)
        else ("write_check", txn_write_check p rng ~nodes));
  }

let transfer_spec p ~nodes =
  {
    Driver.name = "smallbank-transfer";
    generate =
      (fun rng ~node ->
        ignore node;
        ("send_payment", txn_send_payment p rng ~nodes));
  }

let total_money_replica p (sys : System.t) ~node ~shard =
  let total = ref 0L in
  for account = 0 to p.accounts_per_node - 1 do
    List.iter
      (fun table ->
        match System.peek sys ~node (key ~table ~shard ~account) with
        | Some v -> total := Int64.add !total (decode v)
        | None -> ())
      [ checking_table; savings_table ]
  done;
  !total

let total_money p (sys : System.t) =
  let nodes = sys.System.cfg.Config.nodes in
  let total = ref 0L in
  for shard = 0 to nodes - 1 do
    total :=
      Int64.add !total (total_money_replica p sys ~node:shard ~shard)
  done;
  !total
