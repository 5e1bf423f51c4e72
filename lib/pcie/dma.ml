open Xenic_sim

type kind = Read | Write

type request = { kind : kind; bytes : int; k : unit -> unit }

type queue = {
  engine_res : Resource.t;
  mutable pending : request list;  (* newest first *)
  mutable pending_count : int;
  mutable timer_armed : bool;
  (* Bumped on every flush. A gather timer captures the generation it
     was armed in and becomes a no-op if its vector was already flushed
     by the size limit — otherwise the stale timer would cut the next
     vector's gather window short. *)
  mutable gen : int;
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

(* How long a partially-filled vector waits for companions before being
   submitted; models "submitted when the core is idle" (§4.3.1). *)
let gather_delay_ns = 150.0

let create engine hw =
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
            pending = [];
            pending_count = 0;
            timer_armed = false;
            gen = 0;
          });
    bus = Resource.create engine ~name:"pcie-bus" ~servers:1;
    vectored = true;
    rr = 0;
    ops = 0;
    vectors = 0;
  }

let set_vectored t v = t.vectored <- v

let completion_ns t = function
  | Read -> t.hw.dma_read_completion_ns
  | Write -> t.hw.dma_write_completion_ns

(* All elements of a vector become visible one completion delay after
   engine service (Fig 4b: full vectors do not increase completion
   latency). *)
let rec complete t = function
  | [] -> ()
  | r :: rest ->
      Engine.after t.engine (completion_ns t r.kind) r.k;
      complete t rest

(* A vector is a chain of engine callbacks rather than a process: bus
   hold, queue-engine hold, then every element's completion. The two
   steps are one [let rec], so they share a single closure block. *)
let flush t q =
  let n = q.pending_count in
  if n > 0 then begin
    let reqs = List.rev q.pending in
    q.pending <- [];
    q.pending_count <- 0;
    q.gen <- q.gen + 1;
    q.timer_armed <- false;
    t.vectors <- t.vectors + 1;
    t.ops <- t.ops + n;
    let total_bytes = List.fold_left (fun acc r -> acc + r.bytes) 0 reqs in
    let service =
      t.hw.dma_submit_ns +. (float_of_int n *. t.hw.dma_engine_elem_ns)
    in
    let bus_time =
      float_of_int total_bytes /. Xenic_params.Hw.pcie_rate t.hw
    in
    let rec on_bus () = Resource.use_then q.engine_res service on_engine
    and on_engine () = complete t reqs in
    Resource.use_then t.bus bus_time on_bus
  end

let submit t kind ~bytes ~queue k =
  let q = t.queues.(queue mod Array.length t.queues) in
  q.pending <- { kind; bytes; k } :: q.pending;
  q.pending_count <- q.pending_count + 1;
  if (not t.vectored) || q.pending_count >= t.hw.dma_vector_max then flush t q
  else if not q.timer_armed then begin
    q.timer_armed <- true;
    let gen = q.gen in
    (* Attribute a gather-timer flush (bus + engine service of the
       whole vector) to the request that armed the timer. *)
    Engine.after t.engine gather_delay_ns
      (Attrib.preserve (fun () -> if q.gen = gen then flush t q))
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

let utilization t =
  let total =
    Array.fold_left
      (fun acc q -> acc +. Resource.utilization q.engine_res)
      0.0 t.queues
  in
  total /. float_of_int (Array.length t.queues)

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
