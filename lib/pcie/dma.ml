open Xenic_sim

type kind = Read | Write

(* Each queue gathers its pending requests in reusable arrays, slots
   [0, pending_count), cleared after every flush so no completion is
   retained. A partial vector waits for companions behind a gather
   timer. Every timer has the same delay, so timers fire in the order
   they were armed: [timers_fired] numbers each firing, and a timer is
   live only if its ordinal is [live_timer], the one guarding the
   current vector. A vector the size limit flushed first leaves its
   timer stale, and a stale timer must not cut the next vector's gather
   window short. *)
type queue = {
  engine_res : Resource.t;
  ks : (unit -> unit) array;
  kinds : kind array;
  mutable pending_count : int;
  mutable pending_bytes : int;
  mutable arm_ctx : Attrib.ctx;  (* context of the request that armed the timer *)
  mutable timers_set : int;
  mutable timers_fired : int;
  mutable live_timer : int;  (* 0: no timer guards the pending vector *)
  mutable gather : unit -> unit;  (* the queue's timer, built once *)
}

type t = {
  engine : Engine.t;
  hw : Xenic_params.Hw.t;
  queues : queue array;
  bus : Resource.t;
  mutable vectored : bool;
  mutable rr : int;
  mutable ops : int;
  mutable vectors : int;
}

(* A vector in flight is one record and one step closure, not a
   process: the step is scheduled for the bus hold's end and the queue
   engine hold's end, then every element's completion is scheduled.
   Both holds are attributed to the context the vector was flushed
   under. *)
type vector = {
  dma : t;
  v_queue : queue;
  v_ctx : Attrib.ctx;
  v_ks : (unit -> unit) array;
  v_kinds : kind array;
  mutable on_engine : bool;
  mutable v_step : unit -> unit;
}

(* How long a partially-filled vector waits for companions before being
   submitted; models "submitted when the core is idle" (§4.3.1). *)
let gather_delay_ns = 150.0

let set_vectored t v = t.vectored <- v

let completion_ns t = function
  | Read -> t.hw.dma_read_completion_ns
  | Write -> t.hw.dma_write_completion_ns

let vector_step v =
  let t = v.dma in
  if not v.on_engine then begin
    Resource.release_as t.bus v.v_ctx;
    v.on_engine <- true;
    let n = Array.length v.v_ks in
    let service =
      t.hw.dma_submit_ns +. (float_of_int n *. t.hw.dma_engine_elem_ns)
    in
    Resource.hold_then v.v_queue.engine_res v.v_ctx service v.v_step
  end
  else begin
    Resource.release_as v.v_queue.engine_res v.v_ctx;
    (* All elements of a vector become visible one completion delay
       after engine service (Fig 4b: full vectors do not increase
       completion latency). *)
    for i = 0 to Array.length v.v_ks - 1 do
      Engine.after t.engine (completion_ns t v.v_kinds.(i)) v.v_ks.(i)
    done
  end

let flush t q ctx =
  let n = q.pending_count in
  if n > 0 then begin
    let v =
      {
        dma = t;
        v_queue = q;
        v_ctx = ctx;
        v_ks = Array.sub q.ks 0 n;
        v_kinds = Array.sub q.kinds 0 n;
        on_engine = false;
        v_step = ignore;
      }
    in
    v.v_step <- (fun () -> vector_step v);
    let total_bytes = q.pending_bytes in
    Array.fill q.ks 0 n ignore;
    q.pending_count <- 0;
    q.pending_bytes <- 0;
    q.live_timer <- 0;
    t.vectors <- t.vectors + 1;
    t.ops <- t.ops + n;
    let bus_time =
      float_of_int total_bytes /. Xenic_params.Hw.pcie_rate t.hw
    in
    Resource.hold_then t.bus ctx bus_time v.v_step
  end

let on_gather_timer t q =
  q.timers_fired <- q.timers_fired + 1;
  (* Attribute a gather-timer flush (bus + engine service of the whole
     vector) to the request that armed the timer. *)
  if q.timers_fired = q.live_timer then flush t q q.arm_ctx

let create engine hw =
  let t =
    {
      engine;
      hw;
      queues =
        Array.init hw.dma_queues (fun i ->
            {
              engine_res =
                Resource.create engine
                  ~name:(Printf.sprintf "dmaq%d" i)
                  ~servers:1;
              ks = Array.make (max 1 hw.dma_vector_max) ignore;
              kinds = Array.make (max 1 hw.dma_vector_max) Read;
              pending_count = 0;
              pending_bytes = 0;
              arm_ctx = Attrib.default;
              timers_set = 0;
              timers_fired = 0;
              live_timer = 0;
              gather = ignore;
            });
      bus = Resource.create engine ~name:"pcie-bus" ~servers:1;
      vectored = true;
      rr = 0;
      ops = 0;
      vectors = 0;
    }
  in
  Array.iter (fun q -> q.gather <- (fun () -> on_gather_timer t q)) t.queues;
  t

let submit t kind ~bytes ~queue k =
  let q = t.queues.(queue mod Array.length t.queues) in
  let i = q.pending_count in
  q.ks.(i) <- k;
  q.kinds.(i) <- kind;
  q.pending_count <- i + 1;
  q.pending_bytes <- q.pending_bytes + bytes;
  if (not t.vectored) || q.pending_count >= t.hw.dma_vector_max then
    flush t q (Attrib.get ())
  else if q.live_timer = 0 then begin
    q.timers_set <- q.timers_set + 1;
    q.live_timer <- q.timers_set;
    q.arm_ctx <- Attrib.get ();
    Engine.after t.engine gather_delay_ns q.gather
  end

let next_queue t =
  t.rr <- t.rr + 1;
  t.rr

let blocking t kind ?queue ~bytes () =
  let queue = match queue with Some q -> q | None -> next_queue t in
  Process.suspend (fun resume -> submit t kind ~bytes ~queue resume)

let read ?queue t ~bytes = blocking t Read ?queue ~bytes ()

let write ?queue t ~bytes = blocking t Write ?queue ~bytes ()

let ops_completed t = t.ops

let vectors_issued t = t.vectors

let queues_busy t =
  Array.fold_left
    (fun acc q -> acc + Resource.in_use q.engine_res)
    0 t.queues

let occupancy t =
  let load =
    Array.fold_left
      (fun acc q ->
        acc + Resource.in_use q.engine_res + Resource.queue_length q.engine_res
        + q.pending_count)
      0 t.queues
  in
  float_of_int load /. float_of_int (Array.length t.queues)

let resources t =
  (Array.to_list t.queues |> List.map (fun q -> q.engine_res)) @ [ t.bus ]
