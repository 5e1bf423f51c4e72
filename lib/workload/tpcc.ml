open Xenic_sim
open Xenic_cluster
open Xenic_proto
open Tpcc_schema

type params = {
  warehouses_per_node : int;
  districts : int;
  customers_per_district : int;
  items : int;
  remote_item_prob : float;
  remote_payment_prob : float;
  uniform_item_partitions : bool;
}

let default_params =
  {
    warehouses_per_node = 8;
    districts = 10;
    customers_per_district = 60;
    items = 2_000;
    remote_item_prob = 0.01;
    remote_payment_prob = 0.15;
    uniform_item_partitions = false;
  }

let new_order_params = { default_params with uniform_item_partitions = true }

(* -- Tables and key encoding ---------------------------------------- *)

let t_warehouse = 1

let t_district = 2

let t_customer = 3

let t_stock = 4

let t_order = 5

let t_new_order = 6

let t_order_line = 7

let t_order_by_cust = 8

let t_history = 9

(* District index within a node: wl * districts + d. *)
let dix p ~wl ~d = (wl * p.districts) + d

let k_warehouse ~node ~wl =
  Keyspace.make ~shard:node ~table:t_warehouse ~ordered:false ~id:wl

let k_district p ~node ~wl ~d =
  Keyspace.make ~shard:node ~table:t_district ~ordered:false ~id:(dix p ~wl ~d)

let k_customer p ~node ~wl ~d ~c =
  Keyspace.make ~shard:node ~table:t_customer ~ordered:false
    ~id:((dix p ~wl ~d * 4096) + c)

let k_stock ~node ~wl ~i =
  Keyspace.make ~shard:node ~table:t_stock ~ordered:false
    ~id:((wl * 65536) + i)

let k_order p ~node ~wl ~d ~o =
  Keyspace.make ~shard:node ~table:t_order ~ordered:true
    ~id:((dix p ~wl ~d lsl 24) lor o)

let k_new_order p ~node ~wl ~d ~o =
  Keyspace.make ~shard:node ~table:t_new_order ~ordered:true
    ~id:((dix p ~wl ~d lsl 24) lor o)

let k_order_line p ~node ~wl ~d ~o ~line =
  Keyspace.make ~shard:node ~table:t_order_line ~ordered:true
    ~id:((((dix p ~wl ~d lsl 24) lor o) lsl 4) lor line)

let k_order_by_cust p ~node ~wl ~d ~c ~o =
  Keyspace.make ~shard:node ~table:t_order_by_cust ~ordered:true
    ~id:((((dix p ~wl ~d * 4096) + c) lsl 24) lor o)

let k_history p ~node ~wl ~d ~seq =
  Keyspace.make ~shard:node ~table:t_history ~ordered:true
    ~id:((dix p ~wl ~d lsl 30) lor seq)

(* -- Store sizing ---------------------------------------------------- *)

let hash_keys_per_shard p =
  p.warehouses_per_node
  * (1 + p.districts + (p.districts * p.customers_per_district) + p.items)

let store_cfg p =
  let seg_size = 64 in
  let slots = int_of_float (float_of_int (hash_keys_per_shard p) /. 0.7) in
  let segments = max 8 ((slots + seg_size - 1) / seg_size) in
  (segments, seg_size, Some 8)

let chained_buckets p = max 64 (hash_keys_per_shard p / 6)

(* -- Loading --------------------------------------------------------- *)

let make_items p =
  let rng = Rng.create ~seed:7L in
  Array.init p.items (fun i ->
      {
        Item.i_id = i;
        i_im_id = Rng.int rng 10_000;
        i_name = Printf.sprintf "item-%06d" i;
        i_price = 1.0 +. (float_of_int (Rng.int rng 9900) /. 100.0);
        i_data = "item-data";
      })

let load p (sys : System.t) =
  let nodes = sys.System.cfg.Config.nodes in
  let rng = Rng.create ~seed:11L in
  for node = 0 to nodes - 1 do
    for wl = 0 to p.warehouses_per_node - 1 do
      sys.System.load (k_warehouse ~node ~wl)
        (Warehouse.encode
           {
             Warehouse.w_id = (node * p.warehouses_per_node) + wl;
             w_name = Printf.sprintf "w-%d-%d" node wl;
             w_street_1 = "1 Main St";
             w_street_2 = "";
             w_city = "Springfield";
             w_state = "WA";
             w_zip = "98100";
             w_tax = float_of_int (Rng.int rng 20) /. 100.0;
             w_ytd = 0.0;
           });
      for d = 0 to p.districts - 1 do
        sys.System.load (k_district p ~node ~wl ~d)
          (District.encode
             {
               District.d_id = d;
               d_w_id = (node * p.warehouses_per_node) + wl;
               d_name = Printf.sprintf "d-%d" d;
               d_street_1 = "2 Side St";
               d_street_2 = "";
               d_city = "Springfield";
               d_state = "WA";
               d_zip = "98100";
               d_tax = float_of_int (Rng.int rng 20) /. 100.0;
               d_ytd = 0.0;
               d_next_o_id = 1;
             });
        for c = 0 to p.customers_per_district - 1 do
          sys.System.load (k_customer p ~node ~wl ~d ~c)
            (Customer.encode
               {
                 Customer.c_id = c;
                 c_d_id = d;
                 c_w_id = (node * p.warehouses_per_node) + wl;
                 c_first = Printf.sprintf "First%d" c;
                 c_middle = "OE";
                 c_last = Printf.sprintf "Last%d" (c mod 10);
                 c_street_1 = "3 Back St";
                 c_street_2 = "";
                 c_city = "Springfield";
                 c_state = "WA";
                 c_zip = "98100";
                 c_phone = "555-0100";
                 c_since = 0;
                 c_credit = (if Rng.int rng 10 = 0 then "BC" else "GC");
                 c_credit_lim = 50_000.0;
                 c_discount = float_of_int (Rng.int rng 50) /. 100.0;
                 c_balance = -10.0;
                 c_ytd_payment = 10.0;
                 c_payment_cnt = 1;
                 c_delivery_cnt = 0;
                 c_data = "customer-data";
               })
        done
      done;
      for i = 0 to p.items - 1 do
        sys.System.load (k_stock ~node ~wl ~i)
          (Stock.encode
             {
               Stock.s_i_id = i;
               s_w_id = (node * p.warehouses_per_node) + wl;
               s_quantity = 10 + Rng.int rng 91;
               s_dist = Array.make 10 "dist-info";
               s_ytd = 0;
               s_order_cnt = 0;
               s_remote_cnt = 0;
               s_data = "stock-data";
             })
      done
    done
  done;
  sys.System.seal ()

(* -- Transactions ---------------------------------------------------- *)

let dec_district view k =
  match view k with Some b -> District.decode b | None -> failwith "no district"

let dec_stock view k =
  match view k with Some b -> Stock.decode b | None -> failwith "no stock"

(* New Order (§5.2): read warehouse/district/customer, read+update the
   stock of 5-15 items, insert the order, its index entries, and one
   order line per item. *)
let txn_new_order p items ~nodes rng ~node =
  let wl = Rng.int rng p.warehouses_per_node in
  let d = Rng.int rng p.districts in
  let c = Rng.int rng p.customers_per_district in
  let ol_cnt = 5 + Rng.int rng 11 in
  let lines =
    Array.init ol_cnt (fun _ ->
        let i = Rng.int rng p.items in
        let supply_node, supply_wl =
          if p.uniform_item_partitions then
            (Rng.int rng nodes, Rng.int rng p.warehouses_per_node)
          else if Rng.float rng < p.remote_item_prob then
            ((node + 1 + Rng.int rng (max 1 (nodes - 1))) mod nodes,
             Rng.int rng p.warehouses_per_node)
          else (node, wl)
        in
        let qty = 1 + Rng.int rng 10 in
        (i, supply_node, supply_wl, qty))
  in
  let kw = k_warehouse ~node ~wl in
  let kd = k_district p ~node ~wl ~d in
  let kc = k_customer p ~node ~wl ~d ~c in
  let stock_keys =
    Array.to_list
      (Array.map
         (fun (i, sn, swl, _) -> k_stock ~node:sn ~wl:swl ~i)
         lines)
  in
  let stock_keys = List.sort_uniq compare stock_keys in
  let read_set = kw :: kd :: kc :: stock_keys in
  let write_set = kd :: stock_keys in
  let exec view =
    let dist = dec_district view kd in
    let o = dist.District.d_next_o_id in
    let all_local =
      Array.for_all (fun (_, sn, swl, _) -> sn = node && swl = wl) lines
    in
    let stock_ops =
      List.map
        (fun sk ->
          let s = dec_stock view sk in
          let used =
            Array.to_list lines
            |> List.filter (fun (i, sn, swl, _) ->
                   k_stock ~node:sn ~wl:swl ~i = sk)
          in
          let total_qty =
            List.fold_left (fun acc (_, _, _, q) -> acc + q) 0 used
          in
          let remote =
            List.exists (fun (_, sn, swl, _) -> sn <> node || swl <> wl) used
          in
          let quantity =
            if s.Stock.s_quantity >= total_qty + 10 then
              s.Stock.s_quantity - total_qty
            else s.Stock.s_quantity - total_qty + 91
          in
          Op.Put
            ( sk,
              Stock.encode
                {
                  s with
                  Stock.s_quantity = quantity;
                  s_ytd = s.Stock.s_ytd + total_qty;
                  s_order_cnt = s.Stock.s_order_cnt + 1;
                  s_remote_cnt =
                    (s.Stock.s_remote_cnt + if remote then 1 else 0);
                } ))
        stock_keys
    in
    let order_lines =
      Array.to_list
        (Array.mapi
           (fun line (i, sn, swl, qty) ->
             let item : Item.t = items.(i) in
             Op.Put
               ( k_order_line p ~node ~wl ~d ~o ~line,
                 Order_line.encode
                   {
                     Order_line.ol_o_id = o;
                     ol_d_id = d;
                     ol_w_id = (node * p.warehouses_per_node) + wl;
                     ol_number = line;
                     ol_i_id = i;
                     ol_supply_w_id = (sn * p.warehouses_per_node) + swl;
                     ol_delivery_d = -1;
                     ol_quantity = qty;
                     ol_amount = float_of_int qty *. item.Item.i_price;
                     ol_dist_info = "dist-info";
                   } ))
           lines)
    in
    (* Op order matters for observers of partially-applied records:
       the order and its lines are applied before the NEW-ORDER row
       that makes them deliverable, and the district row (whose version
       serializes the schedule) comes last. *)
    Op.Put
      ( k_order p ~node ~wl ~d ~o,
        Order.encode
          {
            Order.o_id = o;
            o_d_id = d;
            o_w_id = (node * p.warehouses_per_node) + wl;
            o_c_id = c;
            o_entry_d = 0;
            o_carrier_id = -1;
            o_ol_cnt = ol_cnt;
            o_all_local = all_local;
          } )
    :: Op.Put (k_order_by_cust p ~node ~wl ~d ~c ~o, Bytes.make 8 '\000')
    :: (order_lines
       @ Op.Put
           ( k_new_order p ~node ~wl ~d ~o,
             New_order.encode
               { New_order.no_o_id = o; no_d_id = d; no_w_id = 0 } )
         :: stock_ops
       @ [ Op.Put (kd, District.encode { dist with District.d_next_o_id = o + 1 }) ])
  in
  Types.make ~host_exec_ns:900.0 ~state_bytes:(16 * ol_cnt) ~ship_exec:true
    ~read_set ~write_set exec

(* Payment: update warehouse/district YTD and the customer's balance
   (15% of customers belong to a remote warehouse), insert history. *)
let txn_payment p ~nodes rng ~node ~hseq =
  let wl = Rng.int rng p.warehouses_per_node in
  let d = Rng.int rng p.districts in
  let amount = 1.0 +. (float_of_int (Rng.int rng 499_900) /. 100.0) in
  let c_node, c_wl =
    if Rng.float rng < p.remote_payment_prob && nodes > 1 then
      ((node + 1 + Rng.int rng (nodes - 1)) mod nodes,
       Rng.int rng p.warehouses_per_node)
    else (node, wl)
  in
  let c_d = Rng.int rng p.districts in
  let c = Rng.int rng p.customers_per_district in
  let kw = k_warehouse ~node ~wl in
  let kd = k_district p ~node ~wl ~d in
  let kc = k_customer p ~node:c_node ~wl:c_wl ~d:c_d ~c in
  let kh = k_history p ~node ~wl ~d ~seq:hseq in
  let read_set = [ kw; kd; kc ] in
  let write_set = [ kw; kd; kc ] in
  let exec view =
    let w =
      match view kw with Some b -> Warehouse.decode b | None -> failwith "no w"
    in
    let dist = dec_district view kd in
    let cust =
      match view kc with Some b -> Customer.decode b | None -> failwith "no c"
    in
    [
      Op.Put (kw, Warehouse.encode { w with Warehouse.w_ytd = w.Warehouse.w_ytd +. amount });
      Op.Put (kd, District.encode { dist with District.d_ytd = dist.District.d_ytd +. amount });
      Op.Put
        ( kc,
          Customer.encode
            {
              cust with
              Customer.c_balance = cust.Customer.c_balance -. amount;
              c_ytd_payment = cust.Customer.c_ytd_payment +. amount;
              c_payment_cnt = cust.Customer.c_payment_cnt + 1;
            } );
      Op.Put
        ( kh,
          History.encode
            {
              History.h_c_id = c;
              h_c_d_id = c_d;
              h_c_w_id = (c_node * p.warehouses_per_node) + c_wl;
              h_d_id = d;
              h_w_id = (node * p.warehouses_per_node) + wl;
              h_date = 0;
              h_amount = amount;
              h_data = "payment";
            } );
    ]
  in
  Types.make ~host_exec_ns:700.0 ~state_bytes:32 ~ship_exec:true ~read_set
    ~write_set exec

(* Order Status (read-only, local): the customer's last order and its
   lines, scanned from the local B+ trees. *)
let txn_order_status p (sys : System.t) rng ~node =
  let wl = Rng.int rng p.warehouses_per_node in
  let d = Rng.int rng p.districts in
  let c = Rng.int rng p.customers_per_district in
  let kc = k_customer p ~node ~wl ~d ~c in
  let exec view =
    ignore (view kc);
    (match
       System.peek_max sys ~node
         ~lo:(k_order_by_cust p ~node ~wl ~d ~c ~o:0)
         ~hi:(k_order_by_cust p ~node ~wl ~d ~c ~o:((1 lsl 24) - 1))
     with
    | Some (k, _) ->
        let o = Keyspace.id k land ((1 lsl 24) - 1) in
        ignore
          (System.peek_range sys ~node
             ~lo:(k_order_line p ~node ~wl ~d ~o ~line:0)
             ~hi:(k_order_line p ~node ~wl ~d ~o ~line:15))
    | None -> ());
    []
  in
  Types.make ~host_exec_ns:900.0 ~ship_exec:false ~read_set:[ kc ] ~write_set:[]
    exec

(* Delivery, chopped per district: pop the oldest NEW-ORDER, mark the
   order delivered, add its amount to the customer's balance. The
   district row is written to serialize concurrent deliveries. *)
let txn_delivery p (sys : System.t) rng ~node =
  let wl = Rng.int rng p.warehouses_per_node in
  let d = Rng.int rng p.districts in
  let kd = k_district p ~node ~wl ~d in
  (* The customer cannot be known until execution; lock the district
     and read the oldest undelivered order during execution, emitting
     ops on local ordered tables plus one customer update discovered by
     the scan. The customer key is declared conservatively by scanning
     at generation time; if the order was taken meanwhile, validation
     on the district row aborts and the driver retries. *)
  let oldest =
    System.peek_min sys ~node
      ~lo:(k_new_order p ~node ~wl ~d ~o:0)
      ~hi:(k_new_order p ~node ~wl ~d ~o:((1 lsl 24) - 1))
  in
  match oldest with
  | None ->
      (* Nothing to deliver: a read-only no-op on the district. *)
      Types.make ~host_exec_ns:400.0 ~ship_exec:false ~read_set:[ kd ]
        ~write_set:[] (fun _ -> [])
  | Some (kno, _) ->
      let o = Keyspace.id kno land ((1 lsl 24) - 1) in
      let korder = k_order p ~node ~wl ~d ~o in
      let c =
        match sys.System.peek ~node korder with
        | Some b -> (Order.decode b).Order.o_c_id
        | None -> 0
      in
      let kc = k_customer p ~node ~wl ~d ~c in
      let exec view =
        let dist = dec_district view kd in
        match
          ( sys.System.peek ~node korder,
            sys.System.peek ~node (k_new_order p ~node ~wl ~d ~o) )
        with
        | None, _ | _, None ->
            (* The order vanished or was already delivered between
               generation and execution: commit a no-op that still
               bumps the district version. *)
            [ Op.Put (kd, District.encode dist) ]
        | Some ob, Some _ ->
            let order = Order.decode ob in
            let amount =
              List.fold_left
                (fun acc (_, b) ->
                  acc +. (Order_line.decode b).Order_line.ol_amount)
                0.0
                (System.peek_range sys ~node
                   ~lo:(k_order_line p ~node ~wl ~d ~o ~line:0)
                   ~hi:(k_order_line p ~node ~wl ~d ~o ~line:15))
            in
            let cust =
              match view kc with
              | Some b -> Customer.decode b
              | None -> failwith "no customer"
            in
            [
              Op.Delete (k_new_order p ~node ~wl ~d ~o);
              Op.Put
                (korder, Order.encode { order with Order.o_carrier_id = 1 });
              Op.Put
                ( kc,
                  Customer.encode
                    {
                      cust with
                      Customer.c_balance = cust.Customer.c_balance +. amount;
                      c_delivery_cnt = cust.Customer.c_delivery_cnt + 1;
                    } );
              (* The district version-bump serializes deliveries; it is
                 deliberately LAST so any reader that observes the new
                 district version also observes the NEW-ORDER delete —
                 workers apply a record's ops in order. *)
              Op.Put (kd, District.encode dist);
            ]
      in
      Types.make ~host_exec_ns:1200.0 ~ship_exec:false ~read_set:[ kd; kc ]
        ~write_set:[ kd; kc ] exec

(* Stock Level (read-only, local): count recent order-line items whose
   stock is below a threshold. The spec exempts this query from
   serializability; it reads local structures directly. *)
let txn_stock_level p (sys : System.t) rng ~node =
  let wl = Rng.int rng p.warehouses_per_node in
  let d = Rng.int rng p.districts in
  let threshold = 10 + Rng.int rng 11 in
  let kd = k_district p ~node ~wl ~d in
  let exec view =
    let dist = dec_district view kd in
    let next_o = dist.District.d_next_o_id in
    let lo_o = max 1 (next_o - 20) in
    let lines =
      System.peek_range sys ~node
        ~lo:(k_order_line p ~node ~wl ~d ~o:lo_o ~line:0)
        ~hi:(k_order_line p ~node ~wl ~d ~o:(next_o - 1) ~line:15)
    in
    let distinct = Hashtbl.create 32 in
    List.iter
      (fun (_, b) ->
        let ol = Order_line.decode b in
        Hashtbl.replace distinct ol.Order_line.ol_i_id ())
      lines;
    let low = ref 0 in
    Hashtbl.fold (fun i () acc -> i :: acc) distinct []
    |> List.sort compare
    |> List.iter (fun i ->
           match sys.System.peek ~node (k_stock ~node ~wl ~i) with
           | Some sb ->
               if (Stock.decode sb).Stock.s_quantity < threshold then incr low
           | None -> ());
    []
  in
  Types.make ~host_exec_ns:1800.0 ~ship_exec:false ~read_set:[ kd ] ~write_set:[]
    exec

(* -- Specs ----------------------------------------------------------- *)

let new_order_spec p (sys : System.t) =
  let nodes = sys.System.cfg.Config.nodes in
  let items = make_items p in
  {
    Driver.name = "tpcc-neworder";
    generate =
      (fun rng ~node -> ("new_order", txn_new_order p items ~nodes rng ~node));
  }

let spec p (sys : System.t) =
  let nodes = sys.System.cfg.Config.nodes in
  let items = make_items p in
  let hseq = Array.make nodes 0 in
  {
    Driver.name = "tpcc";
    generate =
      (fun rng ~node ->
        let r = Rng.float rng in
        if Float.compare r 0.45 < 0 then
          ("new_order", txn_new_order p items ~nodes rng ~node)
        else if Float.compare r 0.88 < 0 then begin
          hseq.(node) <- hseq.(node) + 1;
          ("payment", txn_payment p ~nodes rng ~node ~hseq:hseq.(node))
        end
        else if Float.compare r 0.92 < 0 then
          ("order_status", txn_order_status p sys rng ~node)
        else if Float.compare r 0.96 < 0 then
          ("delivery", txn_delivery p sys rng ~node)
        else ("stock_level", txn_stock_level p sys rng ~node));
  }

(* -- Consistency conditions ------------------------------------------ *)

let check_consistency p (sys : System.t) =
  let nodes = sys.System.cfg.Config.nodes in
  let fail fmt = Printf.ksprintf failwith fmt in
  for node = 0 to nodes - 1 do
    for wl = 0 to p.warehouses_per_node - 1 do
      let w =
        match sys.System.peek ~node (k_warehouse ~node ~wl) with
        | Some b -> Warehouse.decode b
        | None -> fail "missing warehouse %d.%d" node wl
      in
      let d_ytd_sum = ref 0.0 in
      for d = 0 to p.districts - 1 do
        let dist =
          match sys.System.peek ~node (k_district p ~node ~wl ~d) with
          | Some b -> District.decode b
          | None -> fail "missing district %d.%d.%d" node wl d
        in
        d_ytd_sum := !d_ytd_sum +. dist.District.d_ytd;
        (* Condition 1: d_next_o_id - 1 = max order id. *)
        let next_o = dist.District.d_next_o_id in
        let max_o =
          match
            System.peek_max sys ~node
              ~lo:(k_order p ~node ~wl ~d ~o:0)
              ~hi:(k_order p ~node ~wl ~d ~o:((1 lsl 24) - 1))
          with
          | Some (_, b) -> (Order.decode b).Order.o_id
          | None -> 0
        in
        if max_o <> next_o - 1 then
          fail "district %d.%d.%d: next_o_id %d but max order %d" node wl d
            next_o max_o;
        (* Condition 3/4: each order has o_ol_cnt lines; NEW-ORDER rows
           correspond to undelivered orders. *)
        let orders =
          System.peek_range sys ~node
            ~lo:(k_order p ~node ~wl ~d ~o:0)
            ~hi:(k_order p ~node ~wl ~d ~o:((1 lsl 24) - 1))
        in
        List.iter
          (fun (_, b) ->
            let order = Order.decode b in
            let o = order.Order.o_id in
            let n_lines =
              List.length
                (System.peek_range sys ~node
                   ~lo:(k_order_line p ~node ~wl ~d ~o ~line:0)
                   ~hi:(k_order_line p ~node ~wl ~d ~o ~line:15))
            in
            if n_lines <> order.Order.o_ol_cnt then
              fail "order %d.%d.%d.%d: %d lines, expected %d" node wl d o
                n_lines order.Order.o_ol_cnt;
            let has_new_order =
              sys.System.peek ~node (k_new_order p ~node ~wl ~d ~o) <> None
            in
            let undelivered = order.Order.o_carrier_id < 0 in
            if has_new_order <> undelivered then
              fail "order %d.%d.%d.%d: new-order presence %b, delivered %b"
                node wl d o has_new_order (not undelivered))
          orders
      done;
      (* Condition 2: w_ytd = sum of district ytd. *)
      if Float.compare (abs_float (w.Warehouse.w_ytd -. !d_ytd_sum)) 0.01 > 0
      then
        fail "warehouse %d.%d: w_ytd %.2f but district sum %.2f" node wl
          w.Warehouse.w_ytd !d_ytd_sum
    done
  done
