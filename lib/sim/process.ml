open Effect
open Effect.Deep

exception Not_in_process

type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

(* [sleep] is the hottest blocking point, so it performs a constant
   effect and passes its arguments through an {!Ambient} slot instead
   of an effect payload: the slot is written just before [perform] and
   read at once by the handler, with nothing else running on the domain
   in between. On the main domain it is a plain field; worker domains
   each have their own, so partitions draining on separate domains
   never share it. Its record names [Engine.t], so it cannot join
   {!Attrib}'s frame slot, which [Engine] itself reads. *)
type _ Effect.t += Sleep : unit Effect.t

type sleep_args = {
  mutable s_engine : Engine.t;
  mutable s_node : int option;
  mutable s_delay : float;
}

(* xenic-lint: partitioned main-domain-value-dls-while-workers-run *)
let sleep_slot : sleep_args Ambient.slot =
  Ambient.slot (fun () ->
      { s_engine = Engine.create (); s_node = None; s_delay = 0.0 })

let sleep_args () =
  if Ambient.switch.shared then Ambient.get sleep_slot
  else sleep_slot.Ambient.main

(* Dynamic scoping of the attribution context: the suspending process's
   context travels with the continuation — reinstalled for the resumed
   body, with the resumer's own context restored once the body suspends
   again or finishes. The body leaves the installed frame as it found
   it, so one read serves both moves. *)
let resume_in ctx k v =
  let st = Attrib.installed () in
  let resumer_ctx = Attrib.exchange st ctx in
  continue k v;
  Attrib.set_state_ctx st resumer_ctx

(* Preallocated handler case: a sleep allocates only its continuation,
   the wake-up closure and the boxed wake-up time. *)
let sleep_case : ((unit, unit) continuation -> unit) option =
  Some
    (fun k ->
      let s = sleep_args () in
      let ctx = Attrib.get () in
      Engine.after ?node:s.s_node s.s_engine s.s_delay (fun () ->
          resume_in ctx k ()))

(* The [suspend] case. On a strict engine ([strict = Some engine]) a
   second resume of the one-shot continuation is dropped and reported
   as a violation. *)
let suspend_case strict register =
  match strict with
  | None ->
      fun k ->
        let ctx = Attrib.get () in
        register (fun v -> resume_in ctx k v)
  | Some engine ->
      fun k ->
        let ctx = Attrib.get () in
        let resumed = ref false in
        register (fun v ->
            if !resumed then
              Engine.report_violation engine
                "process: one-shot continuation resumed twice (second \
                 wakeup dropped)"
            else begin
              resumed := true;
              resume_in ctx k v
            end)

let handler strict =
  {
    retc = (fun () -> ());
    exnc = (fun exn -> raise exn);
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) continuation -> unit) option ->
        match eff with
        | Sleep -> sleep_case
        | Suspend register -> Some (suspend_case strict register)
        | _ -> None);
  }

(* Every process on a non-strict engine shares this one handler, so a
   spawn allocates no handler record or closures. *)
let shared_handler = handler None

let spawn engine f =
  let handler =
    if Engine.strict engine then handler (Some engine) else shared_handler
  in
  (* The child inherits the spawner's context and may overwrite it
     before its first suspension; restore the spawner's view either
     way, in the frame read once, as [resume_in] does. *)
  let st = Attrib.installed () in
  let caller_ctx = Attrib.state_ctx st in
  match_with f () handler;
  Attrib.set_state_ctx st caller_ctx

let suspend register =
  try perform (Suspend register)
  with Effect.Unhandled _ -> raise Not_in_process

let sleep ?node engine delay =
  let s = sleep_args () in
  s.s_engine <- engine;
  s.s_node <- node;
  s.s_delay <- delay;
  try perform Sleep with Effect.Unhandled _ -> raise Not_in_process

(* One join: the results array is made by the first branch to arrive
   (so it needs no [option] per slot), and [wake] resumes the awaiting
   process once [remaining] reaches zero. *)
type 'a join = {
  mutable results : 'a array;
  mutable remaining : int;
  mutable wake : unit -> unit;
}

let join n = { results = [||]; remaining = n; wake = ignore }

(* The first arrival sees [remaining] still at the branch count. *)
let arrive j i r =
  if Array.length j.results = 0 then j.results <- Array.make j.remaining r
  else j.results.(i) <- r;
  j.remaining <- j.remaining - 1;
  if j.remaining = 0 then j.wake ()

let await j =
  if j.remaining > 0 then suspend (fun resume -> j.wake <- resume);
  Array.to_list j.results

let branch j i f () = arrive j i (f ())

let rec spawn_branches engine j i = function
  | [] -> ()
  | f :: rest ->
      spawn engine (branch j i f);
      spawn_branches engine j (i + 1) rest

let parallel engine thunks =
  match thunks with
  | [] -> []
  | [ f ] -> [ f () ]
  | _ ->
      let j = join (List.length thunks) in
      spawn_branches engine j 0 thunks;
      await j
