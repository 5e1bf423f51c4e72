open Xenic_sim

type 'm node = {
  node_id : int option;  (* [Some i], built once: the wire hop's [~node] *)
  tx : Resource.t;
  rx_link : Resource.t;
  inbox : 'm Packet.t Mailbox.t;
}

(* Per-source gray-failure state. Each row is read at send time — which
   always runs on the source node's partition — and mutated only by
   injection events scheduled [~node:src], so the arrays are race-free
   under the windowed parallel engine, exactly like the wire counters
   below. *)
type fault_row = {
  f_cut : bool array;  (* dst -> frames stall until the cut heals *)
  f_loss : float array;  (* dst -> per-transmission retransmit probability *)
  f_delay : float array;  (* dst -> wire-latency multiplier, >= 1 *)
  f_rng : Rng.t;  (* retransmit draws for frames leaving this source *)
}

type faults = { rto_ns : float; rows : fault_row array }

type 'm t = {
  engine : Engine.t;
  hw : Xenic_params.Hw.t;
  node_arr : 'm node array;
  mutable rate_override : float option;
  mutable faults : faults option;
}

(* A lost transmission is retried at most this many times; the
   validator layer uses the same constant to bound worst-case extra
   delay below any armed request timeout. *)
let max_retransmits = 4

let create engine hw ~nodes =
  let make i =
    {
      node_id = Some i;
      tx = Resource.create engine ~name:(Printf.sprintf "tx%d" i) ~servers:1;
      rx_link = Resource.create engine ~name:(Printf.sprintf "rx%d" i) ~servers:1;
      inbox = Mailbox.create engine;
    }
  in
  {
    engine;
    hw;
    node_arr = Array.init nodes make;
    rate_override = None;
    faults = None;
  }

let nodes t = Array.length t.node_arr

let engine t = t.engine

let hw t = t.hw

let rx t i = t.node_arr.(i).inbox

let rate t =
  match t.rate_override with
  | Some r -> r
  | None -> Xenic_params.Hw.link_rate t.hw

let enable_faults t ~seed ~rto_ns =
  if Float.compare rto_ns 0.0 <= 0 then
    invalid_arg "Fabric.enable_faults: rto_ns must be > 0";
  match t.faults with
  | Some _ -> ()
  | None ->
      let n = Array.length t.node_arr in
      let root = Rng.create ~seed in
      t.faults <-
        Some
          {
            rto_ns;
            rows =
              Array.init n (fun src ->
                  {
                    f_cut = Array.make n false;
                    f_loss = Array.make n 0.0;
                    f_delay = Array.make n 1.0;
                    (* [derive]: per-source streams keyed by node id, so
                       one link's draws never depend on another's. *)
                    f_rng = Rng.derive root ~index:src;
                  });
          }

let require_faults t op =
  match t.faults with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Fabric.%s: faults not enabled" op)

let set_cut t ~src ~dst cut = (require_faults t "set_cut").rows.(src).f_cut.(dst) <- cut

let set_loss t ~src ~dst p =
  if Float.compare p 0.0 < 0 || Float.compare p 1.0 >= 0 then
    invalid_arg "Fabric.set_loss: p must be in [0, 1)";
  (require_faults t "set_loss").rows.(src).f_loss.(dst) <- p

let set_delay t ~src ~dst factor =
  if Float.compare factor 1.0 < 0 then
    invalid_arg "Fabric.set_delay: factor must be >= 1";
  (require_faults t "set_delay").rows.(src).f_delay.(dst) <- factor

(* The wire hop for one frame src->dst under the current fault state.
   Loss is modeled as a reliable transport over a lossy wire: each lost
   transmission costs one retransmit timeout, capped at
   [max_retransmits] — frames are delayed, never dropped, so protocol
   invariants (fire-and-forget COMMIT notifications, lock releases)
   survive arbitrary loss rates. The extra delay is always >= the base
   wire latency, so the hop stays legal as the windowed engine's
   lookahead. Runs on the source's partition. *)
let hop_delay t ~src ~dst =
  let base = t.hw.wire_latency_ns in
  match t.faults with
  | None -> base
  | Some f ->
      let row = f.rows.(src) in
      let d = base *. row.f_delay.(dst) in
      let p = row.f_loss.(dst) in
      if Float.compare p 0.0 > 0 then begin
        let rec retx n =
          if n >= max_retransmits then n
          else if Float.compare (Rng.float row.f_rng) p < 0 then retx (n + 1)
          else n
        in
        d +. (float_of_int (retx 0) *. f.rto_ns)
      end
      else d

(* A cut link stalls the frame at the source until the cut heals (the
   transport keeps retrying; nothing is delivered and nothing is lost).
   Polling keeps the wait on the source's partition; the poll period is
   one base wire latency so heals are noticed promptly. *)
let is_cut t ~src ~dst =
  match t.faults with None -> false | Some f -> f.rows.(src).f_cut.(dst)

(* A frame is one record and one step closure, not a process: the step
   is scheduled for the tx hold's end, each cut poll, the wire hop's
   arrival and the rx hold's end. Both link holds are attributed to the
   sender's context, captured at [send] (or given to [carry]). Once the
   rx hold ends, [finish] takes the frame's payload: [deliver] puts a
   packet in the receive mailbox, [landed] runs a verb's continuation. *)
type ('m, 'p) frame = {
  fabric : 'm t;
  f_src : int;
  f_dst : int;
  f_ctx : Attrib.ctx;
  f_serialization : float;
  payload : 'p;
  mutable f_stage : int;
      (* 0: holding tx; 1: polling a cut link; 2: crossing the wire;
         3: holding rx *)
  mutable f_step : unit -> unit;
}

let step finish fr =
  let t = fr.fabric and src = fr.f_src and dst = fr.f_dst in
  match fr.f_stage with
  | 0 | 1 ->
      if fr.f_stage = 0 then begin
        Resource.release_as t.node_arr.(src).tx fr.f_ctx;
        fr.f_stage <- 1
      end;
      (* A cut link polls here once per base wire latency (see
         {!is_cut}). Otherwise the wire hop is the partition handoff:
         the rx/delivery work after it runs on the destination node's
         partition. Wire latency is exactly the partitioned engine's
         lookahead, so the hop is legal in windowed mode by
         construction (fault delays only ever add to it). *)
      if is_cut t ~src ~dst then
        Engine.after t.engine t.hw.wire_latency_ns fr.f_step
      else begin
        fr.f_stage <- 2;
        Engine.after ?node:t.node_arr.(dst).node_id t.engine
          (hop_delay t ~src ~dst) fr.f_step
      end
  | 2 ->
      fr.f_stage <- 3;
      Resource.hold_then t.node_arr.(dst).rx_link fr.f_ctx fr.f_serialization
        fr.f_step
  | _ ->
      Resource.release_as t.node_arr.(dst).rx_link fr.f_ctx;
      finish fr

let deliver fr = Mailbox.send fr.fabric.node_arr.(fr.f_dst).inbox fr.payload

let landed fr = fr.payload ()

(* A frame of [wire_bytes] from [src]. *)
let frame t ~src ~dst ~wire_bytes ctx payload =
  {
    fabric = t;
    f_src = src;
    f_dst = dst;
    f_ctx = ctx;
    f_serialization = float_of_int wire_bytes /. rate t;
    payload;
    f_stage = 0;
    f_step = ignore;
  }

let send t ~src ~dst ~payload_bytes msgs =
  let wire_bytes = payload_bytes + t.hw.eth_frame_overhead_b in
  let fr =
    frame t ~src ~dst ~wire_bytes (Attrib.get ())
      { Packet.src; dst; wire_bytes; msgs }
  in
  fr.f_step <- (fun () -> step deliver fr);
  Resource.hold_then t.node_arr.(src).tx fr.f_ctx fr.f_serialization fr.f_step

let carry t ~src ~dst ~payload_bytes ctx k =
  let wire_bytes = payload_bytes + t.hw.eth_frame_overhead_b in
  let fr = frame t ~src ~dst ~wire_bytes ctx k in
  fr.f_step <- (fun () -> step landed fr);
  Resource.hold_then t.node_arr.(src).tx ctx fr.f_serialization fr.f_step

let loopback t ~node msgs =
  let packet = { Packet.src = node; dst = node; wire_bytes = 0; msgs } in
  Mailbox.send t.node_arr.(node).inbox packet

let link_busy t ~node =
  Resource.in_use t.node_arr.(node).tx
  + Resource.in_use t.node_arr.(node).rx_link

let resources t =
  Array.to_list t.node_arr |> List.concat_map (fun n -> [ n.tx; n.rx_link ])

let set_rate_override t r = t.rate_override <- r
