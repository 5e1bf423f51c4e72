(* Ambient attribution context for the time-attribution profiler.

   A small dynamically-scoped record (stack x node x phase x txn class)
   carried by the running process: [Process] saves and restores it
   across every spawn and suspend/resume, so a value installed by a
   coordinator at a phase boundary is still in effect when a fabric
   link, DMA queue or NIC core is acquired four layers down — including
   on the server side of an RPC, where each message carries its
   sender's context and the dispatch loop installs it around the
   delivery. Callback chains that run without a process
   ([Resource.use_then], [Fabric.send], [Dma.submit]) capture the
   context when they start and hand it to each hold explicitly.

   The context is NOT a process-global: it lives in an explicit
   {!state} frame owned by the engine (one per partition on a
   partitioned engine) and installed into an {!Ambient} slot for the
   span of an [Engine.run] / partition drain. Two engines interleaved
   in one process therefore cannot observe each other's context, and
   two partitions of one engine running on separate domains each see
   their own frame. A frame also names the partition it belongs to, so
   with worker domains running the engine finds the draining partition
   from the installed frame and needs no slot of its own. On the main
   domain the installed
   frame is a plain field read (the DLS cell only while an engine's
   worker domains run), plus an O(1) record operation; per-context
   resource accounting is additionally gated on {!enabled} so
   non-profiled runs pay only the save/restore moves. *)

type ctx = { stack : string; node : int; phase : string; cls : string }

let compare_ctx a b =
  let c = String.compare a.stack b.stack in
  if c <> 0 then c
  else
    let c = Int.compare a.node b.node in
    if c <> 0 then c
    else
      let c = String.compare a.phase b.phase in
      if c <> 0 then c else String.compare a.cls b.cls


let default = { stack = "-"; node = -1; phase = "-"; cls = "-" }

type state = {
  mutable cur : ctx;
  mutable on : bool;
  part : int;  (* partition index; -1 for an engine's own frame *)
  owner : state option;  (* a partition frame's engine frame *)
}

let fresh () = { cur = default; on = false; part = -1; owner = None }

let partition base i =
  { cur = default; on = base.on; part = i; owner = Some base }

(* The installed frame. Outside any engine run it is the slot's neutral
   frame (engine setup code, tests poking Resource directly); each
   worker domain starts from a neutral frame of its own. *)
(* xenic-lint: partitioned main-domain-value-dls-while-workers-run *)
let slot : state Ambient.slot = Ambient.slot fresh

let installed () =
  if Ambient.switch.shared then Ambient.get slot else slot.Ambient.main

let install st =
  let prev = installed () in
  Ambient.set slot st;
  prev

let partition_in base =
  let st = installed () in
  match st.owner with Some b when b == base -> st.part | _ -> -1

let enabled () = (installed ()).on

let set_state_enabled st v = st.on <- v

let reset_state st = st.cur <- default

let state_ctx st = st.cur

let set_state_ctx st c = st.cur <- c

let exchange st c =
  let prev = st.cur in
  st.cur <- c;
  prev

let get () = (installed ()).cur

let set c = (installed ()).cur <- c

let swap c = exchange (installed ()) c

let set_phase phase =
  let st = installed () in
  if st.on then st.cur <- { st.cur with phase }

module Ctx_map = Map.Make (struct
  type t = ctx

  let compare = compare_ctx
end)
