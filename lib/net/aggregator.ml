open Xenic_sim

(* Each destination gathers its batch in a reusable array, slots
   [0, count), cleared to the [dummy] message after every flush so no
   message is retained and no slot needs an option. A
   partial batch waits behind a window timer. Every timer has the same
   delay ([agg_window_ns]), so timers fire in the order they were
   armed: [timers_fired] numbers each firing, and a timer is live only
   if its ordinal is [live_timer], the one guarding the current batch.
   A batch the size trigger flushed first leaves its timer stale, and a
   stale timer must not cut the next batch's aggregation window
   short. *)
type 'm pending = {
  msgs : 'm array;  (* [agg_max_msgs] slots: a full batch flushes *)
  mutable bytes : int;
  mutable count : int;
  mutable arm_ctx : Attrib.ctx;  (* context of the message that armed the window *)
  mutable timers_set : int;
  mutable timers_fired : int;
  mutable live_timer : int;  (* 0: no timer guards the pending batch *)
  mutable window : unit -> unit;  (* the destination's timer, built once *)
}

type 'm t = {
  fabric : 'm Fabric.t;
  src : int;
  enabled : bool;
  dummy : 'm;  (* fills every slot not holding a gathered message *)
  dests : 'm pending array;
  mutable frames : int;
  mutable messages : int;
}

(* The frame's message list, oldest first, built from the gather
   array. *)
let rec gathered msgs i acc =
  if i < 0 then acc else gathered msgs (i - 1) (msgs.(i) :: acc)

let flush t dst =
  let p = t.dests.(dst) in
  let n = p.count in
  if n > 0 then begin
    t.frames <- t.frames + 1;
    t.messages <- t.messages + n;
    let payload_bytes = p.bytes and msgs = gathered p.msgs (n - 1) [] in
    (* Reset the batch before the send, so the next push starts a fresh
       batch. [Fabric.send] does not suspend: it schedules the wire
       transfer and returns. *)
    Array.fill p.msgs 0 n t.dummy;
    p.bytes <- 0;
    p.count <- 0;
    p.live_timer <- 0;
    Fabric.send t.fabric ~src:t.src ~dst ~payload_bytes msgs
  end

(* A window-timer flush (and the frame's link time) is attributed to
   the message that armed the window. *)
let on_window t dst =
  let p = t.dests.(dst) in
  p.timers_fired <- p.timers_fired + 1;
  if p.timers_fired = p.live_timer then begin
    let ambient = Attrib.swap p.arm_ctx in
    flush t dst;
    Attrib.set ambient
  end

let create fabric ~src ~enabled ~dummy =
  let hw = Fabric.hw fabric in
  let t =
    {
      fabric;
      src;
      enabled;
      dummy;
      dests =
        Array.init (Fabric.nodes fabric) (fun _ ->
            {
              msgs = Array.make (max 1 hw.agg_max_msgs) dummy;
              bytes = 0;
              count = 0;
              arm_ctx = Attrib.default;
              timers_set = 0;
              timers_fired = 0;
              live_timer = 0;
              window = ignore;
            });
      frames = 0;
      messages = 0;
    }
  in
  Array.iteri (fun dst p -> p.window <- (fun () -> on_window t dst)) t.dests;
  t

let push t ~dst ~bytes msg =
  if dst = t.src then Fabric.loopback t.fabric ~node:t.src [ msg ]
  else begin
    let hw = Fabric.hw t.fabric in
    let framed = bytes + hw.agg_msg_header_b in
    if not t.enabled then begin
      t.frames <- t.frames + 1;
      t.messages <- t.messages + 1;
      Fabric.send t.fabric ~src:t.src ~dst ~payload_bytes:framed [ msg ]
    end
    else begin
      let p = t.dests.(dst) in
      p.msgs.(p.count) <- msg;
      p.bytes <- p.bytes + framed;
      p.count <- p.count + 1;
      if p.bytes >= hw.mtu_b || p.count >= hw.agg_max_msgs then flush t dst
      else if p.live_timer = 0 then begin
        p.timers_set <- p.timers_set + 1;
        p.live_timer <- p.timers_set;
        p.arm_ctx <- Attrib.get ();
        Engine.after (Fabric.engine t.fabric) hw.agg_window_ns p.window
      end
    end
  end

let flush_all t =
  for dst = 0 to Array.length t.dests - 1 do
    flush t dst
  done

let frames t = t.frames

let messages t = t.messages
