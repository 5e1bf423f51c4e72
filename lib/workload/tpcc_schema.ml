(* TPC-C record types and their fixed-width binary rows. Field layouts
   are fixed-width so record sizes on the wire match the spec's nominal
   sizes (warehouse ~95B, stock ~330B, customer ~650B: the paper's
   "range of object sizes up to 660B"). Each field is a typed offset:
   [encode] and [decode] convert whole records for loading and checking,
   and the transactions read single fields with [Codec.get] and update
   rows with the [with_*] patches, which copy the row and set only the
   changed fields. *)

(* -- Codec primitives ----------------------------------------------- *)

module Codec = struct
  type _ kind = Int : int kind | Float : float kind | Str : string kind

  (* One fixed-width field of a row: its kind, byte offset and width. *)
  type 'a field = { kind : 'a kind; off : int; width : int }

  (* A row's fields are declared in layout order, each at [after] the
     previous one, and encode, decode and the transactions' accessors
     all go through these values, so their offsets cannot drift. *)
  let int off = { kind = Int; off; width = 8 }

  let float off = { kind = Float; off; width = 8 }

  let str off width = { kind = Str; off; width }

  let after (f : _ field) = f.off + f.width

  (* Fixed-width, zero-padded string field, written into [encode]'s
     fresh zeroed row. A string that does not fit, or that holds a NUL,
     would not decode back to itself, so it is refused rather than
     truncated: field patches rely on [decode] ∘ [encode] being the
     identity on every stored row. One pass checks and copies. *)
  let put_str b (f : string field) s =
    let len = String.length s in
    if len > f.width then
      invalid_arg
        (Printf.sprintf "Codec.put_str: %d bytes into a %d-byte field" len
           f.width);
    if f.off + len > Bytes.length b then invalid_arg "Codec.put_str: short row";
    for i = 0 to len - 1 do
      let c = String.unsafe_get s i in
      if c = '\000' then invalid_arg "Codec.put_str: NUL byte";
      (* xenic-lint: allow BYTES-MUTATION — a fresh row (see [set]) *)
      Bytes.unsafe_set b (f.off + i) c
    done

  let get_str b (f : string field) =
    let stop = f.off + f.width in
    let rec nul i = if i = stop || Bytes.get b i = '\000' then i else nul (i + 1) in
    Bytes.sub_string b f.off (nul f.off - f.off)

  let get : type a. a field -> bytes -> a =
   fun f b ->
    match f.kind with
    | Int -> Int64.to_int (Bytes.get_int64_le b f.off)
    | Float -> Int64.float_of_bits (Bytes.get_int64_le b f.off)
    | Str -> get_str b f

  (* Writes into [b] in place: only ever on a fresh row, from [encode] or
     a [with_*] patch's copy (which sets int and float fields only). A
     stored value is shared by the replicas, the NIC cache and the
     logs. *)
  let set : type a. bytes -> a field -> a -> unit =
   fun b f v ->
    match f.kind with
    (* xenic-lint: allow BYTES-MUTATION — a fresh row or a [with_*] copy *)
    | Int -> Bytes.set_int64_le b f.off (Int64.of_int v)
    (* xenic-lint: allow BYTES-MUTATION — a fresh row or a [with_*] copy *)
    | Float -> Bytes.set_int64_le b f.off (Int64.bits_of_float v)
    | Str -> put_str b f v
end

open Codec

(* -- Warehouse ------------------------------------------------------ *)

module Warehouse = struct
  type t = {
    w_id : int;
    w_name : string;
    w_street_1 : string;
    w_street_2 : string;
    w_city : string;
    w_state : string;
    w_zip : string;
    w_tax : float;
    w_ytd : float;
  }

  let id = int 0
  let name = str (after id) 10
  let street_1 = str (after name) 20
  let street_2 = str (after street_1) 20
  let city = str (after street_2) 20
  let state = str (after city) 2
  let zip = str (after state) 9
  let tax = float (after zip)
  let ytd = float (after tax)
  let size = after ytd

  let encode t =
    let b = Bytes.make size '\000' in
    set b id t.w_id;
    set b name t.w_name;
    set b street_1 t.w_street_1;
    set b street_2 t.w_street_2;
    set b city t.w_city;
    set b state t.w_state;
    set b zip t.w_zip;
    set b tax t.w_tax;
    set b ytd t.w_ytd;
    b

  let decode b =
    {
      w_id = get id b;
      w_name = get name b;
      w_street_1 = get street_1 b;
      w_street_2 = get street_2 b;
      w_city = get city b;
      w_state = get state b;
      w_zip = get zip b;
      w_tax = get tax b;
      w_ytd = get ytd b;
    }

  (* Payment. *)
  let with_ytd row v =
    let b = Bytes.copy row in
    set b ytd v;
    b
end

(* -- District ------------------------------------------------------- *)

module District = struct
  type t = {
    d_id : int;
    d_w_id : int;
    d_name : string;
    d_street_1 : string;
    d_street_2 : string;
    d_city : string;
    d_state : string;
    d_zip : string;
    d_tax : float;
    d_ytd : float;
    d_next_o_id : int;
  }

  let id = int 0
  let w_id = int (after id)
  let name = str (after w_id) 10
  let street_1 = str (after name) 20
  let street_2 = str (after street_1) 20
  let city = str (after street_2) 20
  let state = str (after city) 2
  let zip = str (after state) 9
  let tax = float (after zip)
  let ytd = float (after tax)
  let next_o_id = int (after ytd)
  let size = after next_o_id

  let encode t =
    let b = Bytes.make size '\000' in
    set b id t.d_id;
    set b w_id t.d_w_id;
    set b name t.d_name;
    set b street_1 t.d_street_1;
    set b street_2 t.d_street_2;
    set b city t.d_city;
    set b state t.d_state;
    set b zip t.d_zip;
    set b tax t.d_tax;
    set b ytd t.d_ytd;
    set b next_o_id t.d_next_o_id;
    b

  let decode b =
    {
      d_id = get id b;
      d_w_id = get w_id b;
      d_name = get name b;
      d_street_1 = get street_1 b;
      d_street_2 = get street_2 b;
      d_city = get city b;
      d_state = get state b;
      d_zip = get zip b;
      d_tax = get tax b;
      d_ytd = get ytd b;
      d_next_o_id = get next_o_id b;
    }

  (* Payment. *)
  let with_ytd row v =
    let b = Bytes.copy row in
    set b ytd v;
    b

  (* New-Order. *)
  let with_next_o_id row o =
    let b = Bytes.copy row in
    set b next_o_id o;
    b
end

(* -- Customer ------------------------------------------------------- *)

module Customer = struct
  type t = {
    c_id : int;
    c_d_id : int;
    c_w_id : int;
    c_first : string;
    c_middle : string;
    c_last : string;
    c_street_1 : string;
    c_street_2 : string;
    c_city : string;
    c_state : string;
    c_zip : string;
    c_phone : string;
    c_since : int;
    c_credit : string;
    c_credit_lim : float;
    c_discount : float;
    c_balance : float;
    c_ytd_payment : float;
    c_payment_cnt : int;
    c_delivery_cnt : int;
    c_data : string;
  }

  let id = int 0
  let d_id = int (after id)
  let w_id = int (after d_id)
  let first = str (after w_id) 16
  let middle = str (after first) 2
  let last = str (after middle) 16
  let street_1 = str (after last) 20
  let street_2 = str (after street_1) 20
  let city = str (after street_2) 20
  let state = str (after city) 2
  let zip = str (after state) 9
  let phone = str (after zip) 16
  let since = int (after phone)
  let credit = str (after since) 2
  let credit_lim = float (after credit)
  let discount = float (after credit_lim)
  let balance = float (after discount)
  let ytd_payment = float (after balance)
  let payment_cnt = int (after ytd_payment)
  let delivery_cnt = int (after payment_cnt)
  let data = str (after delivery_cnt) 450
  let size = after data

  let encode t =
    let b = Bytes.make size '\000' in
    set b id t.c_id;
    set b d_id t.c_d_id;
    set b w_id t.c_w_id;
    set b first t.c_first;
    set b middle t.c_middle;
    set b last t.c_last;
    set b street_1 t.c_street_1;
    set b street_2 t.c_street_2;
    set b city t.c_city;
    set b state t.c_state;
    set b zip t.c_zip;
    set b phone t.c_phone;
    set b since t.c_since;
    set b credit t.c_credit;
    set b credit_lim t.c_credit_lim;
    set b discount t.c_discount;
    set b balance t.c_balance;
    set b ytd_payment t.c_ytd_payment;
    set b payment_cnt t.c_payment_cnt;
    set b delivery_cnt t.c_delivery_cnt;
    set b data t.c_data;
    b

  let decode b =
    {
      c_id = get id b;
      c_d_id = get d_id b;
      c_w_id = get w_id b;
      c_first = get first b;
      c_middle = get middle b;
      c_last = get last b;
      c_street_1 = get street_1 b;
      c_street_2 = get street_2 b;
      c_city = get city b;
      c_state = get state b;
      c_zip = get zip b;
      c_phone = get phone b;
      c_since = get since b;
      c_credit = get credit b;
      c_credit_lim = get credit_lim b;
      c_discount = get discount b;
      c_balance = get balance b;
      c_ytd_payment = get ytd_payment b;
      c_payment_cnt = get payment_cnt b;
      c_delivery_cnt = get delivery_cnt b;
      c_data = get data b;
    }

  (* Payment. *)
  let with_payment row ~balance:bal ~ytd_payment:ytd ~payment_cnt:cnt =
    let b = Bytes.copy row in
    set b balance bal;
    set b ytd_payment ytd;
    set b payment_cnt cnt;
    b

  (* Delivery. *)
  let with_delivery row ~balance:bal ~delivery_cnt:cnt =
    let b = Bytes.copy row in
    set b balance bal;
    set b delivery_cnt cnt;
    b
end

(* -- Stock ---------------------------------------------------------- *)

module Stock = struct
  type t = {
    s_i_id : int;
    s_w_id : int;
    s_quantity : int;
    s_dist : string array;  (* 10 *)
    s_ytd : int;
    s_order_cnt : int;
    s_remote_cnt : int;
    s_data : string;
  }

  let i_id = int 0
  let w_id = int (after i_id)
  let quantity = int (after w_id)
  (* s_dist_01 .. s_dist_10. *)
  let dist i = str (after quantity + (24 * i)) 24
  let ytd = int (after (dist 9))
  let order_cnt = int (after ytd)
  let remote_cnt = int (after order_cnt)
  let data = str (after remote_cnt) 50
  let size = after data

  let encode t =
    let b = Bytes.make size '\000' in
    set b i_id t.s_i_id;
    set b w_id t.s_w_id;
    set b quantity t.s_quantity;
    for i = 0 to 9 do
      set b (dist i) t.s_dist.(i)
    done;
    set b ytd t.s_ytd;
    set b order_cnt t.s_order_cnt;
    set b remote_cnt t.s_remote_cnt;
    set b data t.s_data;
    b

  let decode b =
    {
      s_i_id = get i_id b;
      s_w_id = get w_id b;
      s_quantity = get quantity b;
      s_dist = Array.init 10 (fun i -> get (dist i) b);
      s_ytd = get ytd b;
      s_order_cnt = get order_cnt b;
      s_remote_cnt = get remote_cnt b;
      s_data = get data b;
    }

  (* New-Order. *)
  let with_order row ~quantity:q ~ytd:y ~order_cnt:o ~remote_cnt:r =
    let b = Bytes.copy row in
    set b quantity q;
    set b ytd y;
    set b order_cnt o;
    set b remote_cnt r;
    b
end

(* -- Item (read-only, replicated at every node) --------------------- *)

module Item = struct
  type t = {
    i_id : int;
    i_im_id : int;
    i_name : string;
    i_price : float;
    i_data : string;
  }

  let id = int 0
  let im_id = int (after id)
  let name = str (after im_id) 24
  let price = float (after name)
  let data = str (after price) 50
  let size = after data

  let encode t =
    let b = Bytes.make size '\000' in
    set b id t.i_id;
    set b im_id t.i_im_id;
    set b name t.i_name;
    set b price t.i_price;
    set b data t.i_data;
    b

  let decode b =
    {
      i_id = get id b;
      i_im_id = get im_id b;
      i_name = get name b;
      i_price = get price b;
      i_data = get data b;
    }
end

(* -- Order ---------------------------------------------------------- *)

module Order = struct
  type t = {
    o_id : int;
    o_d_id : int;
    o_w_id : int;
    o_c_id : int;
    o_entry_d : int;
    o_carrier_id : int;  (* -1 = not delivered *)
    o_ol_cnt : int;
    o_all_local : bool;
  }

  let id = int 0
  let d_id = int (after id)
  let w_id = int (after d_id)
  let c_id = int (after w_id)
  let entry_d = int (after c_id)
  let carrier_id = int (after entry_d)
  let ol_cnt = int (after carrier_id)
  (* 1 = all local. *)
  let all_local = int (after ol_cnt)
  let size = after all_local

  let encode t =
    let b = Bytes.make size '\000' in
    set b id t.o_id;
    set b d_id t.o_d_id;
    set b w_id t.o_w_id;
    set b c_id t.o_c_id;
    set b entry_d t.o_entry_d;
    set b carrier_id t.o_carrier_id;
    set b ol_cnt t.o_ol_cnt;
    set b all_local (if t.o_all_local then 1 else 0);
    b

  let decode b =
    {
      o_id = get id b;
      o_d_id = get d_id b;
      o_w_id = get w_id b;
      o_c_id = get c_id b;
      o_entry_d = get entry_d b;
      o_carrier_id = get carrier_id b;
      o_ol_cnt = get ol_cnt b;
      o_all_local = get all_local b = 1;
    }

  (* Delivery. *)
  let with_carrier row c =
    let b = Bytes.copy row in
    set b carrier_id c;
    b
end

(* -- New-Order ------------------------------------------------------ *)

module New_order = struct
  type t = { no_o_id : int; no_d_id : int; no_w_id : int }

  let o_id = int 0
  let d_id = int (after o_id)
  let w_id = int (after d_id)
  let size = after w_id

  let encode t =
    let b = Bytes.make size '\000' in
    set b o_id t.no_o_id;
    set b d_id t.no_d_id;
    set b w_id t.no_w_id;
    b

  let decode b = { no_o_id = get o_id b; no_d_id = get d_id b; no_w_id = get w_id b }
end

(* -- Order-Line ----------------------------------------------------- *)

module Order_line = struct
  type t = {
    ol_o_id : int;
    ol_d_id : int;
    ol_w_id : int;
    ol_number : int;
    ol_i_id : int;
    ol_supply_w_id : int;
    ol_delivery_d : int;  (* -1 = not delivered *)
    ol_quantity : int;
    ol_amount : float;
    ol_dist_info : string;
  }

  let o_id = int 0
  let d_id = int (after o_id)
  let w_id = int (after d_id)
  let number = int (after w_id)
  let i_id = int (after number)
  let supply_w_id = int (after i_id)
  let delivery_d = int (after supply_w_id)
  let quantity = int (after delivery_d)
  let amount = float (after quantity)
  let dist_info = str (after amount) 24
  let size = after dist_info

  let encode t =
    let b = Bytes.make size '\000' in
    set b o_id t.ol_o_id;
    set b d_id t.ol_d_id;
    set b w_id t.ol_w_id;
    set b number t.ol_number;
    set b i_id t.ol_i_id;
    set b supply_w_id t.ol_supply_w_id;
    set b delivery_d t.ol_delivery_d;
    set b quantity t.ol_quantity;
    set b amount t.ol_amount;
    set b dist_info t.ol_dist_info;
    b

  let decode b =
    {
      ol_o_id = get o_id b;
      ol_d_id = get d_id b;
      ol_w_id = get w_id b;
      ol_number = get number b;
      ol_i_id = get i_id b;
      ol_supply_w_id = get supply_w_id b;
      ol_delivery_d = get delivery_d b;
      ol_quantity = get quantity b;
      ol_amount = get amount b;
      ol_dist_info = get dist_info b;
    }
end

(* -- History -------------------------------------------------------- *)

module History = struct
  type t = {
    h_c_id : int;
    h_c_d_id : int;
    h_c_w_id : int;
    h_d_id : int;
    h_w_id : int;
    h_date : int;
    h_amount : float;
    h_data : string;
  }

  let c_id = int 0
  let c_d_id = int (after c_id)
  let c_w_id = int (after c_d_id)
  let d_id = int (after c_w_id)
  let w_id = int (after d_id)
  let date = int (after w_id)
  let amount = float (after date)
  let data = str (after amount) 24
  let size = after data

  let encode t =
    let b = Bytes.make size '\000' in
    set b c_id t.h_c_id;
    set b c_d_id t.h_c_d_id;
    set b c_w_id t.h_c_w_id;
    set b d_id t.h_d_id;
    set b w_id t.h_w_id;
    set b date t.h_date;
    set b amount t.h_amount;
    set b data t.h_data;
    b

  let decode b =
    {
      h_c_id = get c_id b;
      h_c_d_id = get c_d_id b;
      h_c_w_id = get c_w_id b;
      h_d_id = get d_id b;
      h_w_id = get w_id b;
      h_date = get date b;
      h_amount = get amount b;
      h_data = get data b;
    }
end
