open Xenic_sim

type 'r t = {
  engine : Engine.t;
  records : ('r * int) Queue.t;
  capacity_b : int;
  mutable used_b : int;
  mutable appended : int;
  mutable applied : int;
  readers : ('r -> int -> unit) Queue.t;
  space_waiters : (unit -> unit) Queue.t;
}

let create engine ~capacity_b =
  {
    engine;
    records = Queue.create ();
    capacity_b;
    used_b = 0;
    appended = 0;
    applied = 0;
    readers = Queue.create ();
    space_waiters = Queue.create ();
  }

let rec append t ~bytes r =
  if t.used_b + bytes > t.capacity_b && t.used_b > 0 then begin
    Process.suspend (fun resume ->
        Queue.add (fun () -> resume ()) t.space_waiters);
    append t ~bytes r
  end
  else begin
    (* Guard-recheck: the capacity test re-runs (via the recursion)
       after every space wait, so the charge below always follows an
       un-suspended pass of the guard. *)
    (* xenic-lint: atomic hostlog-space-recheck *)
    t.used_b <- t.used_b + bytes;
    t.appended <- t.appended + 1;
    if Queue.is_empty t.readers then Queue.add (r, bytes) t.records
    else
      let k = Queue.take t.readers in
      Engine.after t.engine 0.0 (fun () -> k r bytes)
  end

let poll_then t k =
  if Queue.is_empty t.records then Queue.add k t.readers
  else
    let r, bytes = Queue.take t.records in
    k r bytes

let ack t ~bytes =
  t.used_b <- max 0 (t.used_b - bytes);
  t.applied <- t.applied + 1;
  match Queue.take_opt t.space_waiters with
  | Some resume -> Engine.after t.engine 0.0 resume
  | None -> ()

let drained t = t.used_b <= 0 && t.appended <= t.applied
