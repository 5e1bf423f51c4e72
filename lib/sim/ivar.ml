(* Waiters are cells rather than bare continuations so a wait can be
   cancelled (by a timeout) without ever resuming the same one-shot
   continuation twice: whichever of {fill, timer} runs first flips
   [live] and wins; the loser sees [live = false] and does nothing. *)
type 'a waiter = { mutable live : bool; k : 'a -> unit }

type 'a state = Empty of 'a waiter list | Filled of 'a

type 'a t = { engine : Engine.t; name : string; mutable state : 'a state }

let create ?(name = "<ivar>") engine =
  let t = { engine; name; state = Empty [] } in
  Engine.register_check engine (fun () ->
      match t.state with
      | Empty waiters ->
          let blocked = List.filter (fun w -> w.live) waiters in
          if blocked = [] then []
          else
            [
              Printf.sprintf "ivar %s: never filled, %d reader(s) still blocked"
                t.name (List.length blocked);
            ]
      | Filled _ -> []);
  t

let fill t v =
  match t.state with
  | Filled _ -> invalid_arg "Ivar.fill: already filled"
  | Empty waiters ->
      t.state <- Filled v;
      List.iter
        (fun w ->
          if w.live then begin
            w.live <- false;
            Engine.after t.engine 0.0 (fun () -> w.k v)
          end)
        (List.rev waiters)

let is_filled t = match t.state with Filled _ -> true | Empty _ -> false

let add_waiter t w =
  match t.state with
  | Empty waiters -> t.state <- Empty (w :: waiters)
  | Filled _ -> assert false

let read t =
  match t.state with
  | Filled v -> v
  | Empty _ ->
      Process.suspend (fun resume -> add_waiter t { live = true; k = resume })

let read_timeout t ~timeout_ns =
  match t.state with
  | Filled v -> Some v
  | Empty _ ->
      Process.suspend (fun resume ->
          let w = { live = true; k = (fun v -> resume (Some v)) } in
          add_waiter t w;
          Engine.after t.engine timeout_ns (fun () ->
              if w.live then begin
                w.live <- false;
                resume None
              end))

