(* Per-domain ambient values that the main domain reads as plain
   fields.

   A few pieces of simulator state are dynamically scoped per domain:
   the installed attribution frame ({!Attrib}) and the sleep arguments
   ({!Process}). They must be per domain because [Engine.run]
   drains partitions on worker domains, but a [Domain.DLS.get] is
   several times dearer than a field read, and the hot path reads them
   hundreds of times per transaction. So each slot keeps a main-domain
   value next to its DLS key, and one flag, [switch.shared], says which
   to read: it is set only while an engine has worker domains running.
   Both records are visible (read-only) to the slots' owners, so a
   main-domain read is two field loads in the caller, with no call
   across the module boundary.

   The flag's synchronization story: it is written on the main domain,
   set before the workers are spawned and cleared after they are
   joined. [Domain.spawn] and [Domain.join] order those writes with
   every read a worker makes, so each worker sees it set for its whole
   life, and no domain writes it while another reads it. At the switch
   the main domain hands its values into its own DLS cells, and takes
   them back after the join, so its code reads the same values on
   either path. *)

type 'a slot = { mutable main : 'a; key : 'a Domain.DLS.key }

type switch = { mutable shared : bool }

(* xenic-lint: partitioned main-domain-writes-before-spawn-after-join *)
let switch = { shared = false }

(* One handover per slot: copy the main value into the calling domain's
   DLS cell, and back. *)
type handover = { hand_in : unit -> unit; take_back : unit -> unit }

(* Appended to only as each slot is made, at module initialisation,
   before any domain is spawned. *)
(* xenic-lint: partitioned module-init-only *)
let handovers : handover list ref = ref []

let slot init =
  let s = { main = init (); key = Domain.DLS.new_key init } in
  handovers :=
    {
      hand_in = (fun () -> Domain.DLS.set s.key s.main);
      take_back = (fun () -> s.main <- Domain.DLS.get s.key);
    }
    :: !handovers;
  s

let get s = if switch.shared then Domain.DLS.get s.key else s.main

let set s v = if switch.shared then Domain.DLS.set s.key v else s.main <- v

let begin_shared () =
  if switch.shared then
    invalid_arg "Ambient: worker domains are already running";
  if not (Domain.is_main_domain ()) then
    invalid_arg "Ambient: worker domains must be started from the main domain";
  List.iter (fun h -> h.hand_in ()) !handovers;
  switch.shared <- true

let end_shared () =
  List.iter (fun h -> h.take_back ()) !handovers;
  switch.shared <- false
