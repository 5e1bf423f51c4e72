(* Bounded ring buffer for cross-partition event handoff.

   Deliberately lock-free AND unsynchronized: the partitioned engine
   uses one channel per (source, destination) partition pair, written
   only by the source partition's worker while a window runs and
   drained only by the coordinator at the window barrier. The barrier's
   mutex handshake (worker signals done, coordinator observes it under
   the same lock) orders every push before every pop, so the phases
   never overlap and the buffer needs no atomics of its own. *)

type 'a t = {
  buf : 'a array;
  dummy : 'a;  (* fills vacated slots so popped values are not retained *)
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
}

let create ~capacity ~dummy =
  if capacity <= 0 then invalid_arg "Xchan.create: capacity must be positive";
  { buf = Array.make capacity dummy; dummy; head = 0; len = 0 }

let capacity t = Array.length t.buf

let push t v =
  let cap = Array.length t.buf in
  if t.len = cap then false
  else begin
    t.buf.((t.head + t.len) mod cap) <- v;
    t.len <- t.len + 1;
    true
  end

let pop t =
  if t.len = 0 then None
  else begin
    let v = t.buf.(t.head) in
    t.buf.(t.head) <- t.dummy;
    t.head <- (t.head + 1) mod Array.length t.buf;
    t.len <- t.len - 1;
    Some v
  end
