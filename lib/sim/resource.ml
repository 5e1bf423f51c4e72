(* Per-context wait/service accounting (profiler):

   - every completed acquire records its queue wait (zero for an
     immediate grant) against the acquirer's ambient {!Attrib} context;
   - every release closes the matching open grant and records its
     service time against the grant's context (matched by context, the
     oldest grant as a fallback, so totals stay exact even if a phase
     boundary crossed a hold);
   - queue length is integrated over time ([queue_area]), giving the
     Little's-law cross-check: the integral equals the sum of completed
     waits exactly, since each waiter contributes its wait interval.

   Per-context map updates run only while [Attrib.enabled]; the queue
   integral is a couple of float ops and stays always-on.

   The mutable float state lives in all-float records, which OCaml
   stores flat: an update writes the float in place, where a float field
   of a mixed record would get a freshly allocated box on every acquire
   and release. The profiler's counts are floats for the same reason
   (exact up to 2^53). *)

type stat = {
  mutable wait_ns : float;
  mutable waits : float;
  mutable service_ns : float;
  mutable services : float;
}

type stat_view = {
  v_wait_ns : float;
  v_waits : int;
  v_service_ns : float;
  v_services : int;
}

type grant = { g_ctx : Attrib.ctx; t_grant : float }

type waiter = { resume : unit -> unit; w_ctx : Attrib.ctx; t_enq : float }

type acct = {
  mutable busy_time : float;
  mutable last_change : float;
  mutable queue_area : float;  (* integral of queue length over time *)
  mutable last_qchange : float;
}

type t = {
  engine : Engine.t;
  name : string;
  servers : int;
  mutable busy : int;
  waiters : waiter Queue.t;
  acct : acct;
  mutable grants : grant list;  (* open grants, oldest first *)
  mutable stats : stat Attrib.Ctx_map.t;
}

let create engine ~name ~servers =
  if servers <= 0 then invalid_arg "Resource.create: servers must be positive";
  let t =
    {
      engine;
      name;
      servers;
      busy = 0;
      waiters = Queue.create ();
      acct =
        {
          busy_time = 0.0;
          last_change = 0.0;
          queue_area = 0.0;
          last_qchange = 0.0;
        };
      grants = [];
      stats = Attrib.Ctx_map.empty;
    }
  in
  Engine.register_check engine (fun () ->
      let held =
        if t.busy > 0 then
          [
            Printf.sprintf
              "resource %s: %d unit(s) acquired but never released" t.name
              t.busy;
          ]
        else []
      in
      let blocked =
        if Queue.is_empty t.waiters then []
        else
          [
            Printf.sprintf "resource %s: %d acquirer(s) still blocked" t.name
              (Queue.length t.waiters);
          ]
      in
      held @ blocked);
  t

let name t = t.name

let servers t = t.servers

let queue_length t = Queue.length t.waiters

let in_use t = t.busy

(* The accounting steps take the clock, and the grant and release paths
   read it, and [Attrib.enabled], once each. *)
let account_at t now =
  let a = t.acct in
  a.busy_time <- a.busy_time +. (float_of_int t.busy *. (now -. a.last_change));
  a.last_change <- now

let account t = account_at t (Engine.now t.engine)

let account_queue_at t now =
  let a = t.acct in
  a.queue_area <-
    a.queue_area
    +. (float_of_int (Queue.length t.waiters) *. (now -. a.last_qchange));
  a.last_qchange <- now

let account_queue t = account_queue_at t (Engine.now t.engine)

let stat_for t ctx =
  match Attrib.Ctx_map.find_opt ctx t.stats with
  | Some s -> s
  | None ->
      let s =
        { wait_ns = 0.0; waits = 0.0; service_ns = 0.0; services = 0.0 }
      in
      t.stats <- Attrib.Ctx_map.add ctx s t.stats;
      s

(* Record a completed wait and open its grant: profiled runs only. *)
let start_grant t ctx ~wait now =
  let s = stat_for t ctx in
  s.wait_ns <- s.wait_ns +. wait;
  s.waits <- s.waits +. 1.0;
  t.grants <- t.grants @ [ { g_ctx = ctx; t_grant = now } ]

(* Detach the first grant matching [ctx]; [None] if none does. *)
let rec detach ctx = function
  | [] -> None
  | g :: rest when Attrib.compare_ctx g.g_ctx ctx = 0 -> Some (g, rest)
  | g :: rest -> (
      match detach ctx rest with
      | Some (g', rest') -> Some (g', g :: rest')
      | None -> None)

(* Profiled runs only. *)
let close_grant t ctx now =
  match t.grants with
  | [] -> ()  (* profiling was enabled mid-hold: nothing to attribute *)
  | g0 :: rest0 ->
      let g, rest =
        match detach ctx t.grants with
        | Some (g, rest) -> (g, rest)
        | None -> (g0, rest0)
      in
      t.grants <- rest;
      let s = stat_for t g.g_ctx in
      s.service_ns <- s.service_ns +. (now -. g.t_grant);
      s.services <- s.services +. 1.0

(* Grant a free unit to [ctx], if there is one. *)
let try_grant t ctx =
  if t.busy < t.servers then begin
    let now = Engine.now t.engine in
    account_at t now;
    t.busy <- t.busy + 1;
    if Attrib.enabled () then start_grant t ctx ~wait:0.0 now;
    true
  end
  else false

(* Park [resume] in the FIFO; {!release} hands it the next free unit. *)
let enqueue t ctx resume =
  let now = Engine.now t.engine in
  account_queue_at t now;
  Queue.add { resume; w_ctx = ctx; t_enq = now } t.waiters

let acquire t =
  let ctx = Attrib.get () in
  if not (try_grant t ctx) then
    (* [resume] is already [unit -> unit]: store it directly, no
       eta-wrapper closure on the blocked-acquire path. *)
    Process.suspend (fun resume -> enqueue t ctx resume)

(* [acquire] without a process: [k] runs at once on a free unit, or
   from the handoff's zero-delay event, exactly where a blocked acquirer
   resumes. [k] runs under whatever context is ambient then. *)
let acquire_then t k =
  let ctx = Attrib.get () in
  if try_grant t ctx then k () else enqueue t ctx k

(* Return a unit held under [ctx], waking the oldest waiter if any. The
   grant is matched by [ctx] (see [close_grant]); nothing else reads the
   ambient context, so a callback can release under its own context
   without installing it. *)
let release_as t ctx =
  let now = Engine.now t.engine in
  let on = Attrib.enabled () in
  if on then close_grant t ctx now;
  (* Integrate the queue BEFORE dequeuing: the departing waiter must
     contribute its full interval to the area, or Little's law breaks. *)
  account_queue_at t now;
  match Queue.take_opt t.waiters with
  | Some w ->
      (* Hand the unit directly to the next waiter: busy count
         unchanged; the waiter's grant starts now, under the context it
         carried into the queue. *)
      if on then start_grant t w.w_ctx ~wait:(now -. w.t_enq) now;
      Engine.after t.engine 0.0 w.resume
  | None ->
      if t.busy <= 0 then
        invalid_arg
          (Printf.sprintf
             "Resource.release: %s released more times than acquired" t.name);
      account_at t now;
      t.busy <- t.busy - 1

let release t = release_as t (Attrib.get ())

let use t duration =
  acquire t;
  Process.sleep t.engine duration;
  release t

(* [use] without a process, and without a closure of its own: the same
   grant, queue and handoff, with the hold's end as an engine event
   that runs the caller's [k]. A queued hold starts with the handoff's
   zero-delay event, exactly as a blocked acquirer resumes. *)
let hold_then t ctx duration k =
  if try_grant t ctx then Engine.after t.engine duration k
  else enqueue t ctx (fun () -> Engine.after t.engine duration k)

(* The hold's end reinstalls the caller's context around [release]
   and [k], then restores the ambient one, in the frame it fetched
   once. *)
let use_then t duration k =
  let ctx = Attrib.get () in
  hold_then t ctx duration (fun () ->
      let st = Attrib.installed () in
      let ambient = Attrib.exchange st ctx in
      release_as t ctx;
      k ();
      Attrib.set_state_ctx st ambient)

let busy_time t =
  account t;
  t.acct.busy_time

let utilization t =
  let now = Engine.now t.engine in
  if Float.compare now 0.0 <= 0 then 0.0
  else busy_time t /. (float_of_int t.servers *. now)

let queue_area t =
  account_queue t;
  t.acct.queue_area

let stats t =
  Attrib.Ctx_map.fold
    (fun ctx s acc ->
      ( ctx,
        {
          v_wait_ns = s.wait_ns;
          v_waits = int_of_float s.waits;
          v_service_ns = s.service_ns;
          v_services = int_of_float s.services;
        } )
      :: acc)
    t.stats []
  |> List.rev
