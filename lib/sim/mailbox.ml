(* Delivery to a parked receiver goes through the engine (so the
   sender keeps running to completion first). A loop's waiter is built
   once with its [deliver] closure, which the engine runs and which
   reads the value from [pending]: [send] schedules a pre-existing
   closure and boxes nothing — this is on the simulator's per-event hot
   path. Between hand-overs [pending] holds [dummy], so a delivered
   value is not retained. A blocked {!recv} gets a closure per delivery
   instead. *)
type 'a waiter = {
  k : 'a -> unit;
  dummy : 'a;
  mutable pending : 'a;
  mutable deliver : unit -> unit;
  mutable parked : 'a receiver;  (* [Loop] of this waiter, built once *)
}

and 'a receiver = Once of ('a -> unit) | Loop of 'a waiter

let waiter ~dummy k =
  let w = { k; dummy; pending = dummy; deliver = ignore; parked = Once k } in
  w.deliver <-
    (fun () ->
      let v = w.pending in
      w.pending <- w.dummy;
      w.k v);
  w.parked <- Loop w;
  w

type 'a t = {
  engine : Engine.t;
  name : string;
  items : 'a Queue.t;
  waiters : 'a receiver Queue.t;
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
  if Queue.is_empty t.waiters then Queue.add v t.items
  else
    match Queue.take t.waiters with
    | Loop w ->
        w.pending <- v;
        Engine.after t.engine 0.0 w.deliver
    | Once k -> Engine.after t.engine 0.0 (fun () -> k v)

let recv t =
  match Queue.take_opt t.items with
  | Some v -> v
  | None -> Process.suspend (fun resume -> Queue.add (Once resume) t.waiters)

let park t w =
  if Queue.is_empty t.items then Queue.add w.parked t.waiters
  else w.k (Queue.take t.items)

let recv_burst t ~max =
  let rec take n acc =
    if n = 0 then List.rev acc
    else
      match Queue.take_opt t.items with
      | None -> List.rev acc
      | Some v -> take (n - 1) (v :: acc)
  in
  take max []
