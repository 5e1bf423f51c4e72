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
   {!state} record owned by the engine (one per partition on a
   partitioned engine) and installed into a domain-local slot for the
   span of an [Engine.run] / partition drain. Two engines interleaved
   in one process therefore cannot observe each other's context, and
   two partitions of one engine running on separate domains each see
   their own state. Reads and writes are a [Domain.DLS.get] plus an
   O(1) record operation; per-context resource accounting is
   additionally gated on {!enabled} so non-profiled runs pay only the
   save/restore moves. *)

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

let to_string c = Printf.sprintf "%s;n%d;%s;%s" c.stack c.node c.cls c.phase

let default = { stack = "-"; node = -1; phase = "-"; cls = "-" }

type state = { mutable cur : ctx; mutable on : bool }

let fresh () = { cur = default; on = false }

(* The domain-local slot holding the installed state. The key itself is
   immutable; each domain lazily materializes its own neutral state the
   first time anything reads the ambient context outside an engine run
   (engine setup code, tests poking Resource directly). *)
let slot : state Domain.DLS.key = Domain.DLS.new_key fresh

let installed () = Domain.DLS.get slot

let install st =
  let prev = Domain.DLS.get slot in
  Domain.DLS.set slot st;
  prev

let enabled () = (installed ()).on

let state_enabled st = st.on

let set_state_enabled st v = st.on <- v

let reset_state st = st.cur <- default

let get () = (installed ()).cur

let set c = (installed ()).cur <- c

let set_phase phase =
  let st = installed () in
  st.cur <- { st.cur with phase }

module Ctx_map = Map.Make (struct
  type t = ctx

  let compare = compare_ctx
end)
