open Xenic_sim

type 'm pending = {
  mutable msgs : 'm list;  (* newest first *)
  mutable bytes : int;
  mutable count : int;
  mutable timer_armed : bool;
  (* Bumped on every flush. A window timer captures the generation it
     was armed in and becomes a no-op if the batch it was guarding was
     already flushed (e.g. by the size trigger) — otherwise the stale
     timer would cut the next batch's aggregation window short. *)
  mutable gen : int;
}

type 'm t = {
  fabric : 'm Fabric.t;
  src : int;
  enabled : bool;
  dests : 'm pending array;
  mutable frames : int;
  mutable messages : int;
}

let create fabric ~src ~enabled =
  {
    fabric;
    src;
    enabled;
    dests =
      Array.init (Fabric.nodes fabric) (fun _ ->
          { msgs = []; bytes = 0; count = 0; timer_armed = false; gen = 0 });
    frames = 0;
    messages = 0;
  }

let flush t dst =
  let p = t.dests.(dst) in
  if p.count > 0 then begin
    t.frames <- t.frames + 1;
    t.messages <- t.messages + p.count;
    let payload_bytes = p.bytes and msgs = List.rev p.msgs in
    (* Reset the batch before the send, so the frame owns [msgs] and
       the next push starts a fresh batch. [Fabric.send] does not
       suspend: it spawns the wire transfer and returns. *)
    p.msgs <- [];
    p.bytes <- 0;
    p.count <- 0;
    p.gen <- p.gen + 1;
    p.timer_armed <- false;
    Fabric.send t.fabric ~src:t.src ~dst ~payload_bytes msgs
  end

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
      p.msgs <- msg :: p.msgs;
      p.bytes <- p.bytes + framed;
      p.count <- p.count + 1;
      if p.bytes >= hw.mtu_b || p.count >= hw.agg_max_msgs then flush t dst
      else if not p.timer_armed then begin
        p.timer_armed <- true;
        let gen = p.gen in
        (* Attribute a window-timer flush (and the frame's link time) to
           the message that armed the window. *)
        Engine.after (Fabric.engine t.fabric) hw.agg_window_ns
          (Attrib.preserve (fun () ->
               if p.gen = gen then begin
                 p.timer_armed <- false;
                 flush t dst
               end))
      end
    end
  end

let flush_all t =
  for dst = 0 to Array.length t.dests - 1 do
    flush t dst
  done

let frames t = t.frames

let messages t = t.messages
