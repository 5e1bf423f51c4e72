(* Tests for the data stores: Robinhood table, NIC caching index,
   Hopscotch and chained baselines, B+ tree, and host log. *)

open Xenic_store

let blen = Bytes.length

let mk_rh ?(segments = 16) ?(seg_size = 64) ?(d_max = Some 8) () =
  Robinhood.create ~segments ~seg_size ~d_max ~vsize:blen

let value i = Bytes.of_string (Printf.sprintf "v%06d" i)

(* ------------------------------------------------------------------ *)
(* Robinhood *)

let test_rh_insert_find () =
  let t = mk_rh () in
  for i = 0 to 99 do
    ignore (Robinhood.insert t i (value i))
  done;
  Alcotest.(check int) "size" 100 (Robinhood.size t);
  for i = 0 to 99 do
    match Robinhood.find t i with
    | Some (v, seq) ->
        Alcotest.(check bytes) "value" (value i) v;
        Alcotest.(check int) "initial seq" 1 seq
    | None -> Alcotest.failf "key %d missing" i
  done;
  Alcotest.(check (option (pair bytes int))) "absent" None (Robinhood.find t 1000)

let test_rh_replace_bumps_seq () =
  let t = mk_rh () in
  ignore (Robinhood.insert t 7 (value 1));
  let outcome = Robinhood.insert t 7 (value 2) in
  Alcotest.(check bool) "replaced" true (outcome = Robinhood.Replaced);
  (match Robinhood.find t 7 with
  | Some (v, seq) ->
      Alcotest.(check bytes) "new value" (value 2) v;
      Alcotest.(check int) "seq bumped" 2 seq
  | None -> Alcotest.fail "missing");
  Alcotest.(check int) "size unchanged" 1 (Robinhood.size t)

let test_rh_update () =
  let t = mk_rh () in
  ignore (Robinhood.insert t 3 (value 0));
  Alcotest.(check bool) "update hit" true (Robinhood.update t 3 (value 9) ~seq:42);
  (match Robinhood.find t 3 with
  | Some (v, seq) ->
      Alcotest.(check bytes) "value" (value 9) v;
      Alcotest.(check int) "seq" 42 seq
  | None -> Alcotest.fail "missing");
  Alcotest.(check bool) "update miss" false (Robinhood.update t 4 (value 1) ~seq:1)

let test_rh_displacement_limit () =
  let t = mk_rh ~segments:4 ~seg_size:16 ~d_max:(Some 4) () in
  (* Fill to high occupancy; every displacement must stay under d_max. *)
  for i = 0 to 55 do
    ignore (Robinhood.insert t i (value i))
  done;
  for i = 0 to 55 do
    match Robinhood.locate t i with
    | Some (`Table d) ->
        Alcotest.(check bool) (Printf.sprintf "disp %d < 4" d) true (d < 4)
    | Some `Overflow -> ()
    | None -> Alcotest.failf "key %d lost" i
  done

let test_rh_delete_backward_shift () =
  let t = mk_rh () in
  for i = 0 to 199 do
    ignore (Robinhood.insert t i (value i))
  done;
  for i = 0 to 199 do
    if i mod 3 = 0 then
      Alcotest.(check bool) "deleted" true (Robinhood.delete t i)
  done;
  Alcotest.(check bool) "delete absent" false (Robinhood.delete t 0);
  for i = 0 to 199 do
    let expect = i mod 3 <> 0 in
    Alcotest.(check bool)
      (Printf.sprintf "key %d presence" i)
      expect
      (Robinhood.find_value t i <> None)
  done

let test_rh_full () =
  let t = Robinhood.create ~segments:1 ~seg_size:4 ~d_max:None ~vsize:blen in
  for i = 0 to 3 do
    ignore (Robinhood.insert t i (value i))
  done;
  Alcotest.check_raises "full" (Failure "Robinhood.insert: table full")
    (fun () -> ignore (Robinhood.insert t 99 (value 99)))

(* The DMA-consistency property (§4.1.2): during an insertion's
   copy-list application, a concurrent region read must never miss an
   element. We check that every previously-inserted key is findable by a
   raw region scan or in its overflow bucket at every intermediate step.
   With [d_max] 2 the keys overflow, and an overflowing insertion must
   keep its displaced element visible too. *)
let test_rh_dma_consistent_swapping d_max () =
  let t = mk_rh ~segments:8 ~seg_size:32 ~d_max:(Some d_max) () in
  let inserted = ref [] in
  let visible_by_scan k =
    (* A raw scan over the whole displacement range, as a DMA read
       would observe — independent of size/bound bookkeeping. *)
    match Robinhood.scan t k ~from_disp:0 ~slots:d_max with
    | Robinhood.Hit _ -> true
    | _ -> fst (Robinhood.find_overflow t k) <> None
  in
  for i = 0 to 199 do
    let check_all () =
      List.iter
        (fun k ->
          if not (visible_by_scan k) then
            Alcotest.failf "key %d invisible mid-insert of %d" k i)
        !inserted
    in
    ignore (Robinhood.insert ~on_step:check_all t i (value i));
    inserted := i :: !inserted
  done;
  if d_max = 2 then
    Alcotest.(check bool) "some keys overflowed" true
      (List.exists (fun k -> Robinhood.locate t k = Some `Overflow) !inserted)

(* Clone checks shared by the model tests. [mk ()] makes an empty
   table of [t]'s geometry, [dump] observes a table completely, and
   [churn t base] rewrites, deletes and inserts keys. The clone must
   equal its source, each must then change without moving the other,
   and every table of another geometry ([mismatched]) must be refused. *)
let clone_checks ~clone ~mk ~dump ~churn ~mismatched t =
  let c = mk () in
  clone ~src:t ~dst:c;
  let src_before = dump t in
  let equal = dump c = src_before in
  churn c 1000;
  let src_kept = dump t = src_before in
  let clone_before = dump c in
  churn t 2000;
  let clone_kept = dump c = clone_before in
  let refused =
    List.for_all
      (fun dst ->
        match clone ~src:t ~dst with
        | () -> false
        | exception Invalid_argument _ -> true)
      mismatched
  in
  equal && src_kept && clone_kept && refused

(* Keys the model tests use, including those [churn] adds. *)
let clone_keys =
  List.init 301 Fun.id @ List.init 41 (( + ) 1000) @ List.init 41 (( + ) 2000)

let rh_dump t =
  let slots = ref [] and homes = ref [] in
  Robinhood.iter t (fun k v seq -> slots := (k, v, seq) :: !slots);
  Robinhood.iter_home_disp t (fun ~home ~disp -> homes := (home, disp) :: !homes);
  ( !slots,
    !homes,
    List.init (Robinhood.segments t) (fun seg ->
        (Robinhood.seg_disp_bound t seg, Robinhood.overflow_count t seg)),
    List.map (Robinhood.locate t) clone_keys,
    Robinhood.size t )

(* Rewrite every present key in place (slot values and overflow
   records alike), delete every other one, insert 41 new keys. *)
let rh_churn t base =
  let present = ref [] in
  Robinhood.iter t (fun k _ _ -> present := k :: !present);
  List.iteri
    (fun i k ->
      ignore (Robinhood.update t k (value (base + k)) ~seq:(base + i));
      if i mod 2 = 0 then ignore (Robinhood.delete t k))
    !present;
  for k = base to base + 40 do
    ignore (Robinhood.insert t k (value k))
  done

let test_rh_model_qcheck =
  (* Model-based test against Hashtbl over random insert/delete/mem and
     the version-guarded put_newer/delete_older. *)
  QCheck.Test.make ~name:"robinhood matches model" ~count:60
    QCheck.(list (triple (int_bound 200) (int_bound 4) (int_bound 6)))
    (fun ops ->
      let t = mk_rh ~segments:8 ~seg_size:64 ~d_max:(Some 8) () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, op, seq) ->
          let v = value ((1000 * seq) + k) in
          match op with
          | 0 ->
              ignore (Robinhood.insert t k v);
              let s =
                match Hashtbl.find_opt model k with Some (_, s) -> s + 1 | None -> 1
              in
              Hashtbl.replace model k (v, s)
          | 1 ->
              let a = Robinhood.delete t k in
              let b = Hashtbl.mem model k in
              Hashtbl.remove model k;
              if a <> b then failwith "delete mismatch"
          | 2 ->
              let a = Robinhood.find_value t k <> None in
              let b = Hashtbl.mem model k in
              if a <> b then failwith "mem mismatch"
          | 3 -> (
              Robinhood.put_newer t k v ~seq;
              match Hashtbl.find_opt model k with
              | Some (_, s) when s >= seq -> ()
              | _ -> Hashtbl.replace model k (v, seq))
          | _ -> (
              Robinhood.delete_older t k ~seq;
              match Hashtbl.find_opt model k with
              | Some (_, s) when s < seq -> Hashtbl.remove model k
              | _ -> ()))
        ops;
      Hashtbl.fold
        (fun k (v, s) acc ->
          acc
          &&
          match Robinhood.find t k with
          | Some (v', s') -> Bytes.equal v v' && s = s'
          | None -> false)
        model true
      && Robinhood.size t = Hashtbl.length model
      && clone_checks ~clone:Robinhood.clone_into
           ~mk:(fun () -> mk_rh ~segments:8 ~seg_size:64 ~d_max:(Some 8) ())
           ~dump:rh_dump ~churn:rh_churn
           ~mismatched:
             [
               mk_rh ~segments:4 ~seg_size:64 ~d_max:(Some 8) ();
               mk_rh ~segments:16 ~seg_size:32 ~d_max:(Some 8) ();
               mk_rh ~segments:8 ~seg_size:64 ~d_max:(Some 4) ();
               mk_rh ~segments:8 ~seg_size:64 ~d_max:None ();
             ]
           t)

(* The model test's tables rarely overflow; this one does, so the clone
   checks also cover overflow records. *)
let test_rh_clone_dense () =
  let mk () = mk_rh ~segments:4 ~seg_size:32 ~d_max:(Some 2) () in
  let t = mk () in
  for k = 0 to 99 do
    ignore (Robinhood.insert t k (value k))
  done;
  Alcotest.(check bool) "some keys overflowed" true
    (List.exists (fun seg -> Robinhood.overflow_count t seg > 0) [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "clone checks" true
    (clone_checks ~clone:Robinhood.clone_into ~mk ~dump:rh_dump ~churn:rh_churn
       ~mismatched:[] t)

let test_rh_region_bytes () =
  let t = mk_rh () in
  ignore (Robinhood.insert t 1 (value 1));
  let b = Robinhood.region_bytes t 1 ~from_disp:0 ~slots:4 in
  (* One occupied slot (header + 7B value) and three empty headers. *)
  Alcotest.(check bool) "region bytes plausible" true
    (b >= (4 * Kv.slot_header_b) && b <= (4 * Kv.slot_header_b) + 16)

let test_rh_out_of_line () =
  let t = mk_rh () in
  let big = Bytes.create 600 in
  ignore (Robinhood.insert t 5 big);
  match Robinhood.scan t 5 ~from_disp:0 ~slots:8 with
  | Robinhood.Hit { out_of_line; _ } ->
      Alcotest.(check bool) "out of line" true out_of_line
  | _ -> Alcotest.fail "not found"

(* ------------------------------------------------------------------ *)
(* NIC index *)

let counting_io () =
  let mem = ref 0 and dmas = ref 0 and slots_total = ref 0 and bytes = ref 0 in
  let io =
    {
      Nic_index.nic_mem = (fun () -> incr mem);
      dma_read =
        (fun ~slots ~bytes:b ->
          incr dmas;
          slots_total := !slots_total + slots;
          bytes := !bytes + b);
    }
  in
  (io, mem, dmas, slots_total, bytes)

let test_idx_miss_then_hit () =
  let host = mk_rh () in
  for i = 0 to 49 do
    ignore (Robinhood.insert host i (value i))
  done;
  let idx = Nic_index.create ~host ~cache_capacity:100 () in
  let io, mem, dmas, _, _ = counting_io () in
  (match Nic_index.read idx io 7 with
  | Some (v, 1) -> Alcotest.(check bytes) "value via DMA" (value 7) v
  | _ -> Alcotest.fail "miss path failed");
  Alcotest.(check int) "one DMA read" 1 !dmas;
  Alcotest.(check int) "no mem hit yet" 0 !mem;
  (* Second read: cache hit, no DMA. *)
  (match Nic_index.read idx io 7 with
  | Some (v, _) -> Alcotest.(check bytes) "cached value" (value 7) v
  | None -> Alcotest.fail "hit path failed");
  Alcotest.(check int) "still one DMA" 1 !dmas;
  Alcotest.(check int) "one mem hit" 1 !mem;
  Alcotest.(check int) "hit counter" 1 (Nic_index.cache_hits idx)

let test_idx_absent () =
  let host = mk_rh () in
  ignore (Robinhood.insert host 1 (value 1));
  let idx = Nic_index.create ~host ~cache_capacity:10 () in
  let io, _, _, _, _ = counting_io () in
  Alcotest.(check (option (pair bytes int))) "absent" None
    (Nic_index.read idx io 999)

let test_idx_stale_hint_second_read () =
  (* Build host, sync hints, then insert more keys at the host so true
     displacements exceed the NIC's hints; lookup must still succeed via
     the second adjacent read. *)
  let host = mk_rh ~segments:8 ~seg_size:16 ~d_max:(Some 8) () in
  for i = 0 to 49 do
    ignore (Robinhood.insert host i (value i))
  done;
  let idx = Nic_index.create ~host ~cache_capacity:0 () in
  for i = 50 to 99 do
    ignore (Robinhood.insert host i (value i))
  done;
  let io, _, _, _, _ = counting_io () in
  for i = 0 to 99 do
    match Robinhood.locate host i with
    | Some (`Table _) | Some `Overflow -> (
        match Nic_index.read idx io i with
        | Some (v, _) -> Alcotest.(check bytes) "found despite staleness" (value i) v
        | None -> Alcotest.failf "key %d not found via index" i)
    | None -> Alcotest.failf "key %d lost from host" i
  done

let test_idx_lock_protocol () =
  let host = mk_rh () in
  ignore (Robinhood.insert host 5 (value 5));
  let idx = Nic_index.create ~host ~cache_capacity:10 () in
  let io = Nic_index.free_io in
  (match Nic_index.try_lock idx io 5 ~owner:1 with
  | `Acquired seq -> Alcotest.(check int) "version at lock" 1 seq
  | `Locked -> Alcotest.fail "lock failed");
  Alcotest.(check (option int)) "locked" (Some 1) (Nic_index.lock_owner idx 5);
  (match Nic_index.try_lock idx io 5 ~owner:2 with
  | `Locked -> ()
  | `Acquired _ -> Alcotest.fail "double lock");
  (* Re-entrant for same owner. *)
  (match Nic_index.try_lock idx io 5 ~owner:1 with
  | `Acquired _ -> ()
  | `Locked -> Alcotest.fail "same-owner relock");
  Nic_index.unlock idx 5 ~owner:1;
  Alcotest.(check (option int)) "unlocked" None (Nic_index.lock_owner idx 5)

let test_idx_commit_pin_evict () =
  let host = mk_rh () in
  ignore (Robinhood.insert host 1 (value 1));
  ignore (Robinhood.insert host 2 (value 2));
  let idx = Nic_index.create ~host ~cache_capacity:1 () in
  let io = Nic_index.free_io in
  (match Nic_index.try_lock idx io 1 ~owner:9 with
  | `Acquired _ -> ()
  | `Locked -> Alcotest.fail "lock");
  let seq = Nic_index.apply_commit idx 1 (value 11) in
  Alcotest.(check int) "version bumped" 2 seq;
  Nic_index.unlock idx 1 ~owner:9;
  (* Entry 1 is pinned: reading key 2 overflows the 1-entry cache but
     cannot evict the pinned entry. *)
  ignore (Nic_index.read idx io 2);
  (match Nic_index.read idx io 1 with
  | Some (v, 2) -> Alcotest.(check bytes) "pinned new value" (value 11) v
  | _ -> Alcotest.fail "pinned entry lost");
  (* Host applies; now the entry may be evicted. *)
  Alcotest.(check bool) "host updated" true
    (Robinhood.update host 1 (value 11) ~seq:2);
  Nic_index.host_applied idx 1;
  ignore (Nic_index.read idx io 2);
  (* Read of key 1 must still return the committed value (from host). *)
  match Nic_index.read idx io 1 with
  | Some (v, 2) -> Alcotest.(check bytes) "value after eviction" (value 11) v
  | _ -> Alcotest.fail "post-eviction read"

let test_idx_insert_absent_key () =
  let host = mk_rh () in
  let idx = Nic_index.create ~host ~cache_capacity:10 () in
  let io = Nic_index.free_io in
  (match Nic_index.try_lock idx io 42 ~owner:1 with
  | `Acquired 0 -> ()
  | _ -> Alcotest.fail "absent key should lock at version 0");
  let seq = Nic_index.apply_commit idx 42 (value 42) in
  Alcotest.(check int) "first version" 1 seq;
  Nic_index.unlock idx 42 ~owner:1;
  match Nic_index.read idx io 42 with
  | Some (v, 1) -> Alcotest.(check bytes) "inserted visible" (value 42) v
  | _ -> Alcotest.fail "insert not visible"

(* The §4.1.3 concurrency re-checks: an index lookup's DMA can suspend
   while another handler locks or commits the same key. We model the
   interleaving deterministically by performing the racing operation
   from inside the io callback. *)
let test_idx_lock_race_during_dma () =
  let host = mk_rh () in
  ignore (Robinhood.insert host 5 (value 5));
  let idx = Nic_index.create ~host ~cache_capacity:10 () in
  (* Owner 2 "wins the race": it locks the key while owner 1's lookup
     DMA is in flight. *)
  let raced = ref false in
  let racing_io =
    {
      Nic_index.nic_mem = (fun () -> ());
      dma_read =
        (fun ~slots:_ ~bytes:_ ->
          if not !raced then begin
            raced := true;
            match Nic_index.try_lock idx Nic_index.free_io 5 ~owner:2 with
            | `Acquired _ -> ()
            | `Locked -> Alcotest.fail "racer should acquire"
          end);
    }
  in
  (match Nic_index.try_lock idx racing_io 5 ~owner:1 with
  | `Locked -> ()
  | `Acquired _ -> Alcotest.fail "double lock grant across DMA suspension");
  Alcotest.(check (option int)) "owner 2 holds the lock" (Some 2)
    (Nic_index.lock_owner idx 5)

let test_idx_commit_race_during_dma () =
  let host = mk_rh () in
  ignore (Robinhood.insert host 9 (value 9));
  let idx = Nic_index.create ~host ~cache_capacity:10 () in
  (* While a read's DMA is in flight, another transaction commits a new
     version; the read must return entry-authoritative data, not the
     stale host value. *)
  let raced = ref false in
  let racing_io =
    {
      Nic_index.nic_mem = (fun () -> ());
      dma_read =
        (fun ~slots:_ ~bytes:_ ->
          if not !raced then begin
            raced := true;
            (match Nic_index.try_lock idx Nic_index.free_io 9 ~owner:7 with
            | `Acquired _ -> ()
            | `Locked -> Alcotest.fail "racer lock");
            ignore (Nic_index.apply_commit idx 9 (value 99));
            Nic_index.unlock idx 9 ~owner:7
          end);
    }
  in
  (match Nic_index.read idx racing_io 9 with
  | Some (v, seq) ->
      Alcotest.(check bytes) "fresh value, not stale host" (value 99) v;
      Alcotest.(check int) "fresh version" 2 seq
  | None -> Alcotest.fail "read failed");
  (* The pinned entry must not have been clobbered by the stale DMA. *)
  match Nic_index.read idx Nic_index.free_io 9 with
  | Some (v, 2) -> Alcotest.(check bytes) "still fresh" (value 99) v
  | _ -> Alcotest.fail "clobbered"

(* The index's hint-guided DMA lookup must agree with the host table
   for arbitrary contents, hint staleness included. *)
let test_idx_matches_host_qcheck =
  QCheck.Test.make ~name:"nic index lookup = host find" ~count:40
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 120) (int_bound 400))
        (int_bound 2))
    (fun (keys, dmax_sel) ->
      let d_max = match dmax_sel with 0 -> Some 4 | 1 -> Some 8 | _ -> None in
      let host = Robinhood.create ~segments:16 ~seg_size:32 ~d_max ~vsize:blen in
      (* Load half before hint sync, half after (stale hints). *)
      let n = List.length keys in
      List.iteri
        (fun i k -> if i < n / 2 then ignore (Robinhood.insert host k (value k)))
        keys;
      let idx = Nic_index.create ~host ~cache_capacity:0 () in
      Nic_index.sync_hints idx;
      List.iteri
        (fun i k -> if i >= n / 2 then ignore (Robinhood.insert host k (value k)))
        keys;
      List.for_all
        (fun k ->
          let via_idx = Nic_index.read idx Nic_index.free_io k in
          let via_host = Robinhood.find host k in
          match (via_idx, via_host) with
          | Some (v1, s1), Some (v2, s2) -> Bytes.equal v1 v2 && s1 = s2
          | None, None -> true
          | _ -> false)
        (keys @ [ 997; 998; 999 ]))

(* Lock metadata for many keys outgrows the entry table sized for an
   empty cache; removals in the middle of probe runs must keep every
   other entry reachable. *)
let test_idx_metadata_growth () =
  let host = mk_rh () in
  let idx = Nic_index.create ~host ~cache_capacity:0 () in
  let io = Nic_index.free_io in
  let keys = List.init 500 (fun i -> (i * 7919) + 1) in
  List.iter
    (fun k ->
      match Nic_index.try_lock idx io k ~owner:k with
      | `Acquired 0 -> ()
      | _ -> Alcotest.failf "lock %d" k)
    keys;
  Alcotest.(check (list (pair int int))) "all locked"
    (List.map (fun k -> (k, k)) keys)
    (Nic_index.locked_keys idx);
  List.iteri (fun i k -> if i mod 2 = 0 then Nic_index.unlock idx k ~owner:k) keys;
  List.iteri
    (fun i k ->
      Alcotest.(check (option int)) (Printf.sprintf "owner of %d" k)
        (if i mod 2 = 0 then None else Some k)
        (Nic_index.lock_owner idx k))
    keys;
  List.iter (fun k -> Nic_index.unlock idx k ~owner:k) keys;
  Alcotest.(check (list (pair int int))) "none locked" [] (Nic_index.locked_keys idx)

(* Deletion's overflow-swap: deleting a table-resident element pulls a
   same-segment overflow element back into the table. *)
let test_rh_delete_overflow_swap () =
  let t = Robinhood.create ~segments:1 ~seg_size:16 ~d_max:(Some 3) ~vsize:blen in
  (* Fill until some keys overflow. *)
  let inserted = ref [] in
  (try
     for i = 0 to 15 do
       ignore (Robinhood.insert t i (value i));
       inserted := i :: !inserted
     done
   with Failure _ -> ());
  let overflowed =
    List.filter (fun k -> Robinhood.locate t k = Some `Overflow) !inserted
  in
  if overflowed <> [] then begin
    let table_resident =
      List.find (fun k -> match Robinhood.locate t k with Some (`Table _) -> true | _ -> false) !inserted
    in
    let ovf_before = Robinhood.overflow_count t 0 in
    Alcotest.(check bool) "delete" true (Robinhood.delete t table_resident);
    (* Every remaining key is still findable. *)
    List.iter
      (fun k ->
        if k <> table_resident then
          Alcotest.(check bool) (Printf.sprintf "key %d" k) true (Robinhood.find_value t k <> None))
      !inserted;
    Alcotest.(check bool) "overflow shrank or equal" true
      (Robinhood.overflow_count t 0 <= ovf_before)
  end

(* ------------------------------------------------------------------ *)
(* Hopscotch *)

let test_hopscotch_basics () =
  let t = Hopscotch.create ~capacity:256 ~h:8 in
  for i = 0 to 199 do
    Hopscotch.insert t i (value i)
  done;
  for i = 0 to 199 do
    match Hopscotch.find t i with
    | Some v -> Alcotest.(check bytes) "value" (value i) v
    | None -> Alcotest.failf "key %d missing" i
  done;
  Alcotest.(check int) "size" 200 (Hopscotch.size t);
  Alcotest.(check bool) "delete" true (Hopscotch.delete t 100);
  Alcotest.(check bool) "gone" true (Hopscotch.find t 100 = None)

let test_hopscotch_lookup_cost () =
  let t = Hopscotch.create ~capacity:1024 ~h:8 in
  for i = 0 to 900 do
    Hopscotch.insert t i (value i)
  done;
  (* Every present key costs h objects for a neighborhood hit; overflow
     keys cost a second roundtrip. *)
  for i = 0 to 900 do
    match Hopscotch.lookup_cost t i with
    | Some (objs, rts) ->
        Alcotest.(check bool) "objs >= h" true (objs >= 8);
        Alcotest.(check bool) "rts in {1,2}" true (rts = 1 || rts = 2)
    | None -> Alcotest.failf "key %d missing" i
  done

let hopscotch_dump t =
  ( Hopscotch.size t,
    List.map (fun k -> (Hopscotch.find t k, Hopscotch.lookup_cost t k)) clone_keys )

(* Rewrite every present model key, delete every other one, insert 41
   new keys. *)
let hopscotch_churn t base =
  List.iteri
    (fun i k ->
      if Hopscotch.find t k <> None then begin
        Hopscotch.insert t k (value (base + k));
        if i mod 2 = 0 then ignore (Hopscotch.delete t k)
      end)
    clone_keys;
  for k = base to base + 40 do
    Hopscotch.insert t k (value k)
  done

(* As [test_rh_clone_dense]: a table dense enough to fill overflow
   chains. *)
let test_hopscotch_clone_dense () =
  let mk () = Hopscotch.create ~capacity:128 ~h:2 in
  let t = mk () in
  for k = 0 to 109 do
    Hopscotch.insert t k (value k)
  done;
  Alcotest.(check bool) "some keys overflowed" true
    (List.exists
       (fun k -> Option.map snd (Hopscotch.lookup_cost t k) = Some 2)
       (List.init 110 Fun.id));
  Alcotest.(check bool) "clone checks" true
    (clone_checks ~clone:Hopscotch.clone_into ~mk ~dump:hopscotch_dump
       ~churn:hopscotch_churn ~mismatched:[] t)

let test_hopscotch_model_qcheck =
  QCheck.Test.make ~name:"hopscotch matches model" ~count:50
    QCheck.(list (pair (int_bound 300) bool))
    (fun ops ->
      let t = Hopscotch.create ~capacity:1024 ~h:8 in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, ins) ->
          if ins then begin
            Hopscotch.insert t k (value k);
            Hashtbl.replace model k (value k)
          end
          else begin
            let a = Hopscotch.delete t k in
            let b = Hashtbl.mem model k in
            Hashtbl.remove model k;
            if a <> b then failwith "delete mismatch"
          end)
        ops;
      Hashtbl.fold
        (fun k v acc ->
          acc
          && match Hopscotch.find t k with
             | Some v' -> Bytes.equal v v'
             | None -> false)
        model true
      && clone_checks ~clone:Hopscotch.clone_into
           ~mk:(fun () -> Hopscotch.create ~capacity:1024 ~h:8)
           ~dump:hopscotch_dump ~churn:hopscotch_churn
           ~mismatched:
             [
               Hopscotch.create ~capacity:512 ~h:8;
               Hopscotch.create ~capacity:1024 ~h:4;
             ]
           t)

(* ------------------------------------------------------------------ *)
(* Chained *)

let test_chained_basics () =
  let t = Chained.create ~buckets:32 ~b:4 in
  for i = 0 to 299 do
    Chained.insert t i (value i)
  done;
  Alcotest.(check int) "size" 300 (Chained.size t);
  for i = 0 to 299 do
    match Chained.find t i with
    | Some (v, _) -> Alcotest.(check bytes) "value" (value i) v
    | None -> Alcotest.failf "key %d missing" i
  done;
  Alcotest.(check bool) "chains allocated" true (Chained.buckets_allocated t > 32);
  Chained.delete_older t 5 ~seq:1;
  Alcotest.(check bool) "not older: kept" true (Chained.find_value t 5 <> None);
  Chained.delete_older t 5 ~seq:2;
  Alcotest.(check bool) "older: gone" true (Chained.find_value t 5 = None);
  Chained.put_newer t 6 (value 66) ~seq:9;
  (match Chained.find t 6 with
  | Some (v, 9) -> Alcotest.(check bytes) "newer: stored" (value 66) v
  | _ -> Alcotest.fail "newer version lost");
  Chained.put_newer t 6 (value 67) ~seq:9;
  match Chained.find t 6 with
  | Some (v, 9) -> Alcotest.(check bytes) "not newer: kept" (value 66) v
  | _ -> Alcotest.fail "newer version lost"

let test_chained_lookup_cost () =
  let t = Chained.create ~buckets:8 ~b:4 in
  for i = 0 to 99 do
    Chained.insert t i (value i)
  done;
  let deep = ref 0 in
  for i = 0 to 99 do
    match Chained.lookup_cost t i with
    | Some (objs, rts) ->
        Alcotest.(check int) "objects = rts*b" (rts * 4) objs;
        if rts > 1 then incr deep
    | None -> Alcotest.failf "missing %d" i
  done;
  Alcotest.(check bool) "some chained lookups" true (!deep > 0)

(* Model: every home bucket is one flat first-fit list of cells, [b] per
   hop. A key's cell index fixes its remote-lookup cost, so the model
   also pins where insertions land after deletions open holes. *)
let chained_dump t =
  ( Chained.size t,
    Chained.buckets_allocated t,
    List.map (fun k -> (Chained.find t k, Chained.lookup_cost t k)) clone_keys )

(* Rewrite every present model key, delete every other one, insert 41
   new keys. *)
let chained_churn t base =
  List.iteri
    (fun i k ->
      if Chained.find_value t k <> None then begin
        Chained.put_newer t k (value (base + k)) ~seq:(base + i);
        if i mod 2 = 0 then Chained.delete_older t k ~seq:max_int
      end)
    clone_keys;
  for k = base to base + 40 do
    Chained.insert t k (value k)
  done

let test_chained_model_qcheck =
  QCheck.Test.make ~name:"chained matches model" ~count:80
    QCheck.(list (pair (int_bound 300) (int_bound 5)))
    (fun ops ->
      let buckets = 8 and b = 4 in
      let t = Chained.create ~buckets ~b in
      let cells = Array.init buckets (fun _ -> Array.make b None) in
      let home k = Kv.Key.hash k mod buckets in
      let index_of k =
        let c = cells.(home k) in
        let rec go i =
          if i = Array.length c then None
          else match c.(i) with Some (k', _, _) when k' = k -> Some i | _ -> go (i + 1)
        in
        go 0
      in
      let set k i cell = cells.(home k).(i) <- cell in
      let place k cell =
        let c = cells.(home k) in
        let rec go i =
          if i = Array.length c then begin
            let grown = Array.append c (Array.make b None) in
            grown.(i) <- cell;
            cells.(home k) <- grown
          end
          else if c.(i) = None then c.(i) <- cell
          else go (i + 1)
        in
        go 0
      in
      let model_find k =
        Option.map
          (fun i ->
            match cells.(home k).(i) with Some (_, v, s) -> (v, s) | None -> assert false)
          (index_of k)
      in
      List.iteri
        (fun step (k, op) ->
          let v = value (k + (1000 * step)) in
          match op with
          | 0 -> (
              Chained.insert t k v;
              match index_of k with
              | Some i ->
                  let _, _, s = Option.get cells.(home k).(i) in
                  set k i (Some (k, v, s + 1))
              | None -> place k (Some (k, v, 1)))
          | 1 -> (
              let seq = step mod 7 in
              Chained.delete_older t k ~seq;
              match index_of k with
              | Some i ->
                  let _, _, s = Option.get cells.(home k).(i) in
                  if seq > s then set k i None
              | None -> ())
          | 2 ->
              let a = Chained.find_value t k <> None in
              Chained.delete_older t k ~seq:max_int;
              let b' =
                match index_of k with Some i -> set k i None; true | None -> false
              in
              if a <> b' then failwith "delete mismatch"
          | 3 ->
              let same =
                match (Chained.find t k, model_find k) with
                | Some (v1, s1), Some (v2, s2) -> Bytes.equal v1 v2 && s1 = s2
                | None, None -> true
                | _ -> false
              in
              if not same then failwith "find mismatch"
          | 4 ->
              let expect =
                Option.map (fun i -> (((i / b) + 1) * b, (i / b) + 1)) (index_of k)
              in
              if Chained.lookup_cost t k <> expect then failwith "lookup_cost mismatch"
          | _ -> (
              let seq = step mod 7 in
              Chained.put_newer t k v ~seq;
              match index_of k with
              | Some i ->
                  let _, _, s = Option.get cells.(home k).(i) in
                  if seq > s then set k i (Some (k, v, seq))
              | None -> place k (Some (k, v, seq))))
        ops;
      let n_cells = Array.fold_left (fun acc c -> acc + Array.length c) 0 cells in
      let n_live =
        Array.fold_left
          (fun acc c -> Array.fold_left (fun a x -> if x = None then a else a + 1) acc c)
          0 cells
      in
      Chained.size t = n_live
      && Chained.buckets_allocated t = n_cells / b
      && clone_checks ~clone:Chained.clone_into
           ~mk:(fun () -> Chained.create ~buckets ~b)
           ~dump:chained_dump ~churn:chained_churn
           ~mismatched:[ Chained.create ~buckets:16 ~b; Chained.create ~buckets ~b:8 ]
           t)

(* ------------------------------------------------------------------ *)
(* B+ tree *)

let test_btree_insert_find () =
  let t = Btree.create () in
  for i = 0 to 999 do
    Btree.insert t (i * 7 mod 1000) i
  done;
  Btree.check_invariants t;
  for i = 0 to 999 do
    Alcotest.(check bool) "mem" true (Btree.mem t i)
  done;
  Alcotest.(check int) "size" 1000 (Btree.size t)

let test_btree_range () =
  let t = Btree.create () in
  List.iter (fun k -> Btree.insert t k (k * 10)) [ 5; 1; 9; 3; 7 ];
  let got = Btree.fold_range t ~lo:3 ~hi:7 ~init:[] (fun acc k v -> (k, v) :: acc) in
  Alcotest.(check (list (pair int int)))
    "range asc"
    [ (3, 30); (5, 50); (7, 70) ]
    (List.rev got);
  Alcotest.(check (option (pair int int))) "min" (Some (3, 30))
    (Btree.min_in_range t ~lo:2 ~hi:8);
  Alcotest.(check (option (pair int int))) "max" (Some (7, 70))
    (Btree.max_in_range t ~lo:2 ~hi:8)

let test_btree_delete () =
  let t = Btree.create () in
  for i = 0 to 499 do
    Btree.insert t i i
  done;
  for i = 0 to 499 do
    if i mod 2 = 0 then Alcotest.(check bool) "del" true (Btree.delete t i)
  done;
  Alcotest.(check bool) "del absent" false (Btree.delete t 0);
  Alcotest.(check int) "size" 250 (Btree.size t);
  for i = 0 to 499 do
    Alcotest.(check bool) "presence" (i mod 2 = 1) (Btree.mem t i)
  done;
  Btree.check_invariants t

(* Up to 4000 ops, 60% inserts over 20k keys: typically over a thousand
   live keys, past the ~800 (32 leaves of ~24) at which the root's
   children split, so internal splits and three-level trees are
   exercised, not just leaf splits. *)
let test_btree_model_qcheck =
  QCheck.Test.make ~name:"btree matches Map model" ~count:60
    QCheck.(
      list_of_size (Gen.int_range 0 4000) (pair (int_bound 20_000) (int_bound 4)))
    (fun ops ->
      let t = Btree.create () in
      let module M = Map.Make (Int) in
      let model = ref M.empty in
      let model_range lo hi =
        M.to_seq_from lo !model
        |> Seq.take_while (fun (k, _) -> k <= hi)
        |> List.of_seq
      in
      List.iter
        (fun (k, op) ->
          match op with
          | 0 | 1 | 2 ->
              Btree.insert t k (k + op);
              model := M.add k (k + op) !model
          | 3 ->
              let a = Btree.delete t k in
              let b = M.mem k !model in
              model := M.remove k !model;
              if a <> b then failwith "delete mismatch"
          | _ ->
              if Btree.find t k <> M.find_opt k !model then failwith "find";
              let lo = k - 150 and hi = k + 150 in
              let expect = model_range lo hi in
              let got =
                Btree.fold_range t ~lo ~hi ~init:[] (fun a k v -> (k, v) :: a)
              in
              if List.rev got <> expect then failwith "range";
              let first = function x :: _ -> Some x | [] -> None in
              if Btree.min_in_range t ~lo ~hi <> first expect then failwith "min";
              if Btree.max_in_range t ~lo ~hi <> first (List.rev expect) then
                failwith "max")
        ops;
      Btree.check_invariants t;
      let all =
        Btree.fold_range t ~lo:min_int ~hi:max_int ~init:[] (fun a k v -> (k, v) :: a)
      in
      List.rev all = M.bindings !model && Btree.size t = M.cardinal !model)

(* Sequential loading (how TPC-C fills its order tables) leaves every
   leaf half full; 20k keys give a three-level tree. *)
let test_btree_sequential_deep () =
  let t = Btree.create () in
  for i = 0 to 19_999 do
    Btree.insert t (3 * i) i
  done;
  Btree.check_invariants t;
  Alcotest.(check int) "size" 20_000 (Btree.size t);
  Alcotest.(check (option (pair int int))) "min" (Some (30_000, 10_000))
    (Btree.min_in_range t ~lo:29_998 ~hi:60_000);
  Alcotest.(check (option (pair int int))) "max" (Some (59_997, 19_999))
    (Btree.max_in_range t ~lo:0 ~hi:70_000);
  Alcotest.(check int) "range count" 1001
    (Btree.fold_range t ~lo:3000 ~hi:6000 ~init:0 (fun a _ _ -> a + 1));
  for i = 0 to 19_999 do
    if i mod 4 <> 0 then ignore (Btree.delete t (3 * i))
  done;
  Btree.check_invariants t;
  Alcotest.(check int) "size after deletes" 5000 (Btree.size t);
  Alcotest.(check (option (pair int int))) "min skips deleted" (Some (12, 4))
    (Btree.min_in_range t ~lo:1 ~hi:100)

(* ------------------------------------------------------------------ *)
(* Footprint ratchet: heap words per stored key, at the sizings the
   workloads use (Robinhood at 75% occupancy, DrTM+H buckets at keys/6
   with B = 8, sequentially loaded B+ tree, NIC index prewarmed to hold
   every key). Values are immediate ints, so only the structure counts.
   [Obj.reachable_words] is exact and machine-independent on 64-bit. *)

let footprint_keys = Array.init 6000 (fun i -> (i * 7919) + 13)

let words_per_key x =
  float_of_int (Obj.reachable_words (Obj.repr x))
  /. float_of_int (Array.length footprint_keys)

let footprint_rh () =
  let n = Array.length footprint_keys in
  let seg_size = 64 in
  let segments = (int_of_float (float_of_int n /. 0.75) + seg_size - 1) / seg_size in
  let t = Robinhood.create ~segments ~seg_size ~d_max:(Some 8) ~vsize:(fun _ -> 8) in
  Array.iter (fun k -> ignore (Robinhood.insert t k k)) footprint_keys;
  t

let check_footprint name ~bound words =
  Printf.printf "%s: %.2f words/key (bound %.2f)\n" name words bound;
  if words > bound then
    Alcotest.failf "%s footprint %.2f words/key exceeds %.2f" name words bound

let test_footprint () =
  let rh = footprint_rh () in
  check_footprint "robinhood" ~bound:5.6 (words_per_key rh);
  let bt = Btree.create () in
  Array.iter (fun k -> Btree.insert bt k k) footprint_keys;
  check_footprint "btree" ~bound:5.3 (words_per_key bt);
  let ch = Chained.create ~buckets:(Array.length footprint_keys / 6) ~b:8 in
  Array.iter (fun k -> Chained.insert ch k k) footprint_keys;
  check_footprint "chained" ~bound:5.4 (words_per_key ch);
  let idx =
    Nic_index.create ~host:rh ~cache_capacity:(Array.length footprint_keys) ()
  in
  Nic_index.sync_hints idx;
  Nic_index.prewarm idx;
  Alcotest.(check int) "all cached" (Array.length footprint_keys)
    (Nic_index.cached_values idx);
  check_footprint "nic_index" ~bound:12.0 (words_per_key idx -. words_per_key rh)

(* ------------------------------------------------------------------ *)
(* Host log *)

let test_hostlog_roundtrip () =
  let eng = Xenic_sim.Engine.create () in
  let log = Hostlog.create eng ~capacity_b:1024 in
  let applied = ref [] in
  Alcotest.(check bool) "fresh log drained" true (Hostlog.drained log);
  let rec worker n =
    if n > 0 then
      Hostlog.poll_then log (fun r bytes ->
          applied := r :: !applied;
          Hostlog.ack log ~bytes;
          worker (n - 1))
  in
  worker 3;
  Xenic_sim.Process.spawn eng (fun () ->
      List.iter (fun r -> ignore (Hostlog.append log ~bytes:100 r)) [ "a"; "b"; "c" ]);
  Alcotest.(check bool) "not drained after append" false (Hostlog.drained log);
  ignore (Xenic_sim.Engine.run eng);
  Alcotest.(check bool) "drained once all acked" true (Hostlog.drained log);
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !applied)

let test_hostlog_backpressure () =
  let eng = Xenic_sim.Engine.create () in
  let log = Hostlog.create eng ~capacity_b:250 in
  let appended_at = ref [] in
  Xenic_sim.Process.spawn eng (fun () ->
      for _ = 1 to 4 do
        ignore (Hostlog.append log ~bytes:100 ());
        appended_at := Xenic_sim.Engine.now eng :: !appended_at
      done);
  (* A slow worker that acks every 1000ns. *)
  let rec worker n =
    if n > 0 then
      Hostlog.poll_then log (fun () bytes ->
          Xenic_sim.Engine.after eng 1000.0 (fun () ->
              Hostlog.ack log ~bytes;
              worker (n - 1)))
  in
  worker 4;
  ignore (Xenic_sim.Engine.run eng);
  (* The 4th append must have been delayed by backpressure. *)
  match List.rev !appended_at with
  | [ _; _; _; t4 ] -> Alcotest.(check bool) "backpressured" true (t4 >= 1000.0)
  | _ -> Alcotest.fail "wrong append count"

(* ------------------------------------------------------------------ *)
(* Allocation ratchets: minor-heap words per store probe (OCaml 5.1, no
   flambda, the dev profile's -opaque; DESIGN.md §18 has the table). A
   probe allocates only the value it returns: a local [let rec] loop
   that captured its caller's variables cost a closure per call. Lower
   a bound when an optimisation lands. *)

let ratchet_calls = 10_000

let words_per_call f =
  let w0 = Gc.minor_words () in
  for _ = 1 to ratchet_calls do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int ratchet_calls

let check_words name ~bound words =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.1f words/call within %.0f" name words bound)
    true (words <= bound)

let filled_rh () =
  let t = mk_rh () in
  for i = 0 to 99 do
    ignore (Robinhood.insert t i (value i))
  done;
  t

let test_alloc_robinhood () =
  let t = filled_rh () in
  let k = 42 in
  Alcotest.(check bool) "probe key in the table" true
    (match Robinhood.locate t k with Some (`Table _) -> true | _ -> false);
  check_words "Robinhood.find_value hit" ~bound:2.0
    (words_per_call (fun () ->
         ignore (Sys.opaque_identity (Robinhood.find_value t k))));
  let v = value 0 and seq = ref 1 in
  check_words "Robinhood.put_newer" ~bound:0.0
    (words_per_call (fun () ->
         incr seq;
         Robinhood.put_newer t k v ~seq:!seq))

let test_alloc_chained () =
  let t = Chained.create ~buckets:16 ~b:4 in
  for i = 0 to 99 do
    Chained.insert t i (value i)
  done;
  check_words "Chained.find_value hit" ~bound:2.0
    (words_per_call (fun () ->
         ignore (Sys.opaque_identity (Chained.find_value t 42))))

(* Key 7 is locked; key 9 has a committed write per call to come. *)
let test_alloc_nic_index () =
  let idx = Nic_index.create ~host:(filled_rh ()) ~cache_capacity:100 () in
  let io = Nic_index.free_io in
  (match Nic_index.try_lock idx io 7 ~owner:1 with
  | `Acquired _ -> ()
  | `Locked -> Alcotest.fail "lock");
  for _ = 1 to ratchet_calls do
    ignore (Nic_index.apply_commit idx 9 (value 9))
  done;
  check_words "Nic_index.lock_owner of a locked key" ~bound:2.0
    (words_per_call (fun () ->
         ignore (Sys.opaque_identity (Nic_index.lock_owner idx 7))));
  check_words "Nic_index.host_applied" ~bound:0.0
    (words_per_call (fun () -> Nic_index.host_applied idx 9));
  check_words "Nic_index.version hit" ~bound:2.0
    (words_per_call (fun () ->
         ignore (Sys.opaque_identity (Nic_index.version idx io 7))))

(* Deep enough for internal nodes above the leaves. *)
let test_alloc_btree () =
  let t = Btree.create () in
  for i = 0 to 9_999 do
    Btree.insert t i i
  done;
  check_words "Btree.find hit" ~bound:2.0
    (words_per_call (fun () -> ignore (Sys.opaque_identity (Btree.find t 4_321))));
  check_words "Btree.insert of an existing key" ~bound:0.0
    (words_per_call (fun () -> Btree.insert t 4_321 7))

(* Words per record applied by a log-apply worker: [records] records
   of [writes] hash writes each, appended by one process with no wait
   between them. *)
let log_apply_words ~writes =
  let open Xenic_cluster in
  let eng = Xenic_sim.Engine.create () in
  let ctl =
    Xenic_proto.Control.create eng Xenic_params.Hw.testbed
      (Config.make ~nodes:1 ~replication:1)
      ~stack:"T" ~partitions:0 ~armed:false
      ~table:(fun () -> Storage.Chained (Chained.create ~buckets:64 ~b:8))
  in
  let log = Xenic_proto.Control.host_log ctl ~node:0 ~name:"log" in
  let pool = Xenic_sim.Resource.create eng ~name:"wrk" ~servers:1 in
  let n_applied = ref 0 in
  Xenic_proto.Control.log_worker ctl ~node:0 ~log ~pool ~applied:(fun _ ->
      incr n_applied);
  let v = Bytes.make 8 'v' in
  let ops =
    List.init writes (fun id ->
        (Op.Put (Keyspace.make ~shard:0 ~table:0 ~ordered:false ~id, v), 1))
  in
  let decision = ref Xenic_proto.Control.Dcommit in
  let records = 1_000 in
  let w0 = Gc.minor_words () in
  Xenic_sim.Process.spawn eng (fun () ->
      for _ = 1 to records do
        Xenic_proto.Control.append_log ctl ~node:0 log ~bytes:64 ~shard:0 ~ops
          decision
      done);
  ignore (Xenic_sim.Engine.run eng);
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every record applied" records !n_applied;
  Alcotest.(check bool) "log drained" true (Hostlog.drained log);
  words /. float_of_int records

(* The difference between nine writes and one per record is eight
   writes: per write, the apply event (its boxed delay and queue entry)
   and the store write. A process sleep per write and a closure per
   chained-table probe made it 27. *)
let test_alloc_log_apply () =
  check_words "write applied by a log worker" ~bound:6.0
    ((log_apply_words ~writes:9 -. log_apply_words ~writes:1) /. 8.0)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "xenic_store"
    [
      ( "robinhood",
        [
          Alcotest.test_case "insert/find" `Quick test_rh_insert_find;
          Alcotest.test_case "replace seq" `Quick test_rh_replace_bumps_seq;
          Alcotest.test_case "update" `Quick test_rh_update;
          Alcotest.test_case "displacement limit" `Quick test_rh_displacement_limit;
          Alcotest.test_case "delete" `Quick test_rh_delete_backward_shift;
          Alcotest.test_case "table full" `Quick test_rh_full;
          Alcotest.test_case "DMA-consistent swaps" `Quick
            (test_rh_dma_consistent_swapping 8);
          Alcotest.test_case "DMA-consistent overflow" `Quick
            (test_rh_dma_consistent_swapping 2);
          Alcotest.test_case "region bytes" `Quick test_rh_region_bytes;
          Alcotest.test_case "out-of-line objects" `Quick test_rh_out_of_line;
          Alcotest.test_case "clone with overflow" `Quick test_rh_clone_dense;
          qt test_rh_model_qcheck;
        ] );
      ( "nic_index",
        [
          Alcotest.test_case "miss then hit" `Quick test_idx_miss_then_hit;
          Alcotest.test_case "absent" `Quick test_idx_absent;
          Alcotest.test_case "stale hints" `Quick test_idx_stale_hint_second_read;
          Alcotest.test_case "locking" `Quick test_idx_lock_protocol;
          Alcotest.test_case "commit/pin/evict" `Quick test_idx_commit_pin_evict;
          Alcotest.test_case "insert absent key" `Quick test_idx_insert_absent_key;
          Alcotest.test_case "lock race during DMA" `Quick
            test_idx_lock_race_during_dma;
          Alcotest.test_case "commit race during DMA" `Quick
            test_idx_commit_race_during_dma;
          Alcotest.test_case "metadata growth" `Quick test_idx_metadata_growth;
          Alcotest.test_case "overflow-swap delete" `Quick
            test_rh_delete_overflow_swap;
          qt test_idx_matches_host_qcheck;
        ] );
      ( "hopscotch",
        [
          Alcotest.test_case "basics" `Quick test_hopscotch_basics;
          Alcotest.test_case "lookup cost" `Quick test_hopscotch_lookup_cost;
          Alcotest.test_case "clone with overflow" `Quick
            test_hopscotch_clone_dense;
          qt test_hopscotch_model_qcheck;
        ] );
      ( "chained",
        [
          Alcotest.test_case "basics" `Quick test_chained_basics;
          Alcotest.test_case "lookup cost" `Quick test_chained_lookup_cost;
          qt test_chained_model_qcheck;
        ] );
      ( "btree",
        [
          Alcotest.test_case "insert/find" `Quick test_btree_insert_find;
          Alcotest.test_case "range" `Quick test_btree_range;
          Alcotest.test_case "delete" `Quick test_btree_delete;
          Alcotest.test_case "sequential deep tree" `Quick test_btree_sequential_deep;
          qt test_btree_model_qcheck;
        ] );
      ("footprint", [ Alcotest.test_case "words per key" `Quick test_footprint ]);
      ( "hostlog",
        [
          Alcotest.test_case "roundtrip" `Quick test_hostlog_roundtrip;
          Alcotest.test_case "backpressure" `Quick test_hostlog_backpressure;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "robinhood" `Quick test_alloc_robinhood;
          Alcotest.test_case "chained" `Quick test_alloc_chained;
          Alcotest.test_case "nic index" `Quick test_alloc_nic_index;
          Alcotest.test_case "btree" `Quick test_alloc_btree;
          Alcotest.test_case "log apply" `Quick test_alloc_log_apply;
        ] );
    ]
