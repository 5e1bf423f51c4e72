(* Delivery to a parked receiver goes through the engine (so the
   sender keeps running to completion first) via [deliver], a closure
   built once with the waiter, which a loop that parks again and again
   reuses; the value crosses over in [pending]. [send] therefore
   schedules a pre-existing closure instead of allocating a fresh
   [fun () -> w.k v] per message — this is on the simulator's per-event
   hot path. *)
type 'a waiter = {
  k : 'a -> unit;
  mutable pending : 'a option;
  mutable deliver : unit -> unit;
}

let waiter k =
  let w = { k; pending = None; deliver = ignore } in
  w.deliver <-
    (fun () ->
      match w.pending with
      | Some v ->
          w.pending <- None;
          w.k v
      | None -> ());
  w

type 'a t = {
  engine : Engine.t;
  name : string;
  items : 'a Queue.t;
  waiters : 'a waiter Queue.t;
}

let create ?(name = "<mailbox>") engine =
  let t =
    { engine; name; items = Queue.create (); waiters = Queue.create () }
  in
  Engine.register_check engine (fun () ->
      if Queue.is_empty t.items then []
      else
        [
          Printf.sprintf "mailbox %s: %d undelivered message(s)" t.name
            (Queue.length t.items);
        ]);
  t

let length t = Queue.length t.items

let send t v =
  match Queue.take_opt t.waiters with
  | Some w ->
      w.pending <- Some v;
      Engine.after t.engine 0.0 w.deliver
  | None -> Queue.add v t.items

let recv t =
  match Queue.take_opt t.items with
  | Some v -> v
  | None ->
      Process.suspend (fun resume -> Queue.add (waiter resume) t.waiters)

let park t w =
  if Queue.is_empty t.items then Queue.add w t.waiters else w.k (Queue.take t.items)

let recv_then t k = park t (waiter k)

let recv_opt t = Queue.take_opt t.items

let recv_burst t ~max =
  let rec take n acc =
    if n = 0 then List.rev acc
    else
      match Queue.take_opt t.items with
      | None -> List.rev acc
      | Some v -> take (n - 1) (v :: acc)
  in
  take max []
