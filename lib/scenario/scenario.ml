open Xenic_sim
open Xenic_proto

type action =
  | Crash of int
  | Recover of int
  | Cut of { froms : int list; tos : int list }
  | Heal
  | Loss of { src : int; dst : int; p : float }
  | Delay of { src : int; dst : int; factor : float }
  | Slow_nic of { node : int; factor : float }
  | Degrade_cores of { node : int; n : int; dur_ns : float }

type event = { at_ns : float; action : action }

type phase = {
  dur_ns : float;
  rate_tps : float;
  theta : float;
  hot_frac : float;
}

type t = {
  name : string;
  nodes : int;
  rto_ns : float;
  events : event list;
  phases : phase list;
}

let sort_events evs =
  List.stable_sort (fun a b -> Float.compare a.at_ns b.at_ns) evs

let make ~name ~nodes ?(rto_ns = 1_000.0) ?(phases = []) events =
  { name; nodes; rto_ns; events = sort_events events; phases }

(* ------------------------------------------------------------------ *)
(* Shape predicates *)

let has_crashes t =
  List.exists (fun e -> match e.action with Crash _ -> true | _ -> false)
    t.events

let has_link_faults t =
  List.exists
    (fun e ->
      match e.action with
      | Cut _ | Heal | Loss _ | Delay _ -> true
      | _ -> false)
    t.events

let has_phases t = t.phases <> []

let max_concurrent_crashes t =
  let down = ref 0 and peak = ref 0 in
  List.iter
    (fun e ->
      match e.action with
      | Crash _ ->
          incr down;
          if !down > !peak then peak := !down
      | Recover _ -> decr down
      | _ -> ())
    t.events;
  !peak

(* ------------------------------------------------------------------ *)
(* Validation *)

(* Protocol-safety bounds for scenarios that run with request timeouts
   armed (crash/recover present). An armed stack's correctness
   reasoning assumes a firing timeout implies a dead peer, so gray
   delay added on top of the nominal round trip must stay well under
   the timeout slack: retransmit cost is capped at
   [Fabric.max_retransmits * rto_ns] per hop and delay factors at 2x
   the wire latency. Cuts and NIC degradation (unbounded added latency)
   are excluded outright on armed scenarios. *)
let armed_max_retx_cost_ns = 5_000.0

let armed_max_delay_factor = 2.0

let max_delay_factor = 64.0

let max_slow_factor = 64.0

let max_loss_p = 0.9

let max_degrade_dur_ns = 10e6

let name_ok s =
  String.length s > 0
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_' || c = '.')
       s

let validate t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let check_node what n =
    if n < 0 || n >= t.nodes then
      Some (Printf.sprintf "%s: node %d out of range [0, %d)" what n t.nodes)
    else None
  in
  let check_endpoint what n =
    if n = -1 then None else check_node what n
  in
  let rec first_err = function
    | [] -> None
    | Some e :: _ -> Some e
    | None :: rest -> first_err rest
  in
  if not (name_ok t.name) then
    err "scenario name %S: must be nonempty [A-Za-z0-9._-]" t.name
  else if t.nodes < 2 then err "nodes = %d: need at least 2" t.nodes
  else if not (Float.is_finite t.rto_ns) || Float.compare t.rto_ns 0.0 <= 0
  then err "rto-ns %g: must be finite and > 0" t.rto_ns
  else begin
    let armed = has_crashes t in
    let crashed = Array.make t.nodes false in
    let problem =
      List.fold_left
        (fun acc e ->
          match acc with
          | Some _ -> acc
          | None ->
              if
                (not (Float.is_finite e.at_ns))
                || Float.compare e.at_ns 0.0 < 0
              then Some (Printf.sprintf "event time %g: must be >= 0" e.at_ns)
              else begin
                match e.action with
                | Crash n -> (
                    match check_node "crash" n with
                    | Some _ as s -> s
                    | None ->
                        if crashed.(n) then
                          Some
                            (Printf.sprintf "crash %d: already crashed" n)
                        else begin
                          crashed.(n) <- true;
                          if Array.for_all (fun b -> b) crashed then
                            Some "crash: every node down at once"
                          else None
                        end)
                | Recover n -> (
                    match check_node "recover" n with
                    | Some _ as s -> s
                    | None ->
                        if not crashed.(n) then
                          Some
                            (Printf.sprintf "recover %d: not crashed here" n)
                        else begin
                          crashed.(n) <- false;
                          None
                        end)
                | Cut { froms; tos } ->
                    if armed then
                      Some
                        "cut: not allowed with crash events (armed \
                         timeouts would fire on reachable peers)"
                    else if froms = [] || tos = [] then
                      Some "cut: empty group"
                    else
                      first_err
                        (List.map (check_node "cut") (froms @ tos))
                | Heal ->
                    if armed then
                      Some "heal: not allowed with crash events"
                    else None
                | Loss { src; dst; p } ->
                    if
                      (not (Float.is_finite p))
                      || Float.compare p 0.0 < 0
                      || Float.compare p max_loss_p > 0
                    then
                      Some
                        (Printf.sprintf "loss p %g: must be in [0, %g]" p
                           max_loss_p)
                    else
                      first_err
                        [
                          check_endpoint "loss src" src;
                          check_endpoint "loss dst" dst;
                        ]
                | Delay { src; dst; factor } ->
                    let cap =
                      if armed then armed_max_delay_factor
                      else max_delay_factor
                    in
                    if
                      (not (Float.is_finite factor))
                      || Float.compare factor 1.0 < 0
                      || Float.compare factor cap > 0
                    then
                      Some
                        (Printf.sprintf
                           "delay factor %g: must be in [1, %g]%s" factor cap
                           (if armed then " (armed scenario)" else ""))
                    else
                      first_err
                        [
                          check_endpoint "delay src" src;
                          check_endpoint "delay dst" dst;
                        ]
                | Slow_nic { node; factor } ->
                    if armed then
                      Some
                        "slow-nic: not allowed with crash events (armed \
                         timeouts would fire on live peers)"
                    else if
                      (not (Float.is_finite factor))
                      || Float.compare factor 1.0 < 0
                      || Float.compare factor max_slow_factor > 0
                    then
                      Some
                        (Printf.sprintf "slow-nic factor %g: must be in [1, %g]"
                           factor max_slow_factor)
                    else check_node "slow-nic" node
                | Degrade_cores { node; n; dur_ns } ->
                    if armed then
                      Some "degrade-cores: not allowed with crash events"
                    else if n < 1 then
                      Some (Printf.sprintf "degrade-cores n %d: must be >= 1" n)
                    else if
                      (not (Float.is_finite dur_ns))
                      || Float.compare dur_ns 0.0 <= 0
                      || Float.compare dur_ns max_degrade_dur_ns > 0
                    then
                      Some
                        (Printf.sprintf
                           "degrade-cores dur %g: must be in (0, %g]" dur_ns
                           max_degrade_dur_ns)
                    else check_node "degrade-cores" node
              end)
        None t.events
    in
    match problem with
    | Some m -> Error m
    | None ->
        let loss_present =
          List.exists
            (fun e ->
              match e.action with
              | Loss { p; _ } -> Float.compare p 0.0 > 0
              | _ -> false)
            t.events
        in
        if
          armed && loss_present
          && Float.compare
               (float_of_int Xenic_net.Fabric.max_retransmits *. t.rto_ns)
               armed_max_retx_cost_ns
             > 0
        then
          err
            "armed scenario with loss: max_retransmits * rto-ns = %g \
             exceeds %g (would risk spurious timeouts)"
            (float_of_int Xenic_net.Fabric.max_retransmits *. t.rto_ns)
            armed_max_retx_cost_ns
        else if armed && t.phases <> [] then
          err "open-loop scenario cannot contain crash/recover events"
        else begin
          let bad_phase =
            List.find_opt
              (fun p ->
                (not (Float.is_finite p.dur_ns))
                || Float.compare p.dur_ns 0.0 <= 0
                || (not (Float.is_finite p.rate_tps))
                || Float.compare p.rate_tps 0.0 <= 0
                || (not (Float.is_finite p.theta))
                || Float.compare p.theta 0.0 < 0
                || Float.compare p.theta 1.0 >= 0
                || (not (Float.is_finite p.hot_frac))
                || Float.compare p.hot_frac 0.0 < 0
                || Float.compare p.hot_frac 1.0 > 0)
              t.phases
          in
          match bad_phase with
          | Some p ->
              err "phase (%g %g %g %g): dur/rate must be > 0, theta in \
                   [0, 1), hot_frac in [0, 1]"
                p.dur_ns p.rate_tps p.theta p.hot_frac
          | None -> Ok ()
        end
  end

let validate_exn t =
  match validate t with
  | Ok () -> ()
  | Error m -> invalid_arg (Printf.sprintf "scenario %s: %s" t.name m)

(* ------------------------------------------------------------------ *)
(* Text form: a minimal s-expression reader/printer. *)

type sexp = Atom of string | L of sexp list

let tokenize s =
  let toks = ref [] in
  let n = String.length s in
  let i = ref 0 in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      toks := Buffer.contents buf :: !toks;
      Buffer.clear buf
    end
  in
  while !i < n do
    (match s.[!i] with
    | '(' | ')' ->
        flush ();
        toks := String.make 1 s.[!i] :: !toks
    | ' ' | '\t' | '\n' | '\r' -> flush ()
    | ';' ->
        flush ();
        while !i < n && s.[!i] <> '\n' do
          incr i
        done
    | c -> Buffer.add_char buf c);
    incr i
  done;
  flush ();
  List.rev !toks

let parse_sexp s =
  let rec one = function
    | [] -> Error "unexpected end of input"
    | "(" :: rest ->
        let rec items acc = function
          | ")" :: rest -> Ok (L (List.rev acc), rest)
          | [] -> Error "missing )"
          | toks -> (
              match one toks with
              | Ok (x, rest) -> items (x :: acc) rest
              | Error _ as e -> e)
        in
        items [] rest
    | ")" :: _ -> Error "unexpected )"
    | a :: rest -> Ok (Atom a, rest)
  and items acc = function
    | [] -> Ok (List.rev acc)
    | toks -> (
        match one toks with
        | Ok (x, rest) -> items (x :: acc) rest
        | Error _ as e -> e)
  in
  items [] (tokenize s)

let float_str f =
  let s = Printf.sprintf "%g" f in
  if Float.equal (float_of_string s) f then s else Printf.sprintf "%.17g" f

let endpoint_str n = if n = -1 then "*" else string_of_int n

let action_to_sexp = function
  | Crash n -> Printf.sprintf "(crash %d)" n
  | Recover n -> Printf.sprintf "(recover %d)" n
  | Cut { froms; tos } ->
      Printf.sprintf "(cut (%s) (%s))"
        (String.concat " " (List.map string_of_int froms))
        (String.concat " " (List.map string_of_int tos))
  | Heal -> "(heal)"
  | Loss { src; dst; p } ->
      Printf.sprintf "(loss %s %s %s)" (endpoint_str src) (endpoint_str dst)
        (float_str p)
  | Delay { src; dst; factor } ->
      Printf.sprintf "(delay %s %s %s)" (endpoint_str src) (endpoint_str dst)
        (float_str factor)
  | Slow_nic { node; factor } ->
      Printf.sprintf "(slow-nic %d %s)" node (float_str factor)
  | Degrade_cores { node; n; dur_ns } ->
      Printf.sprintf "(degrade-cores %d %d %s)" node n (float_str dur_ns)

let to_string t =
  let b = Buffer.create 256 in
  Buffer.add_string b "(scenario\n";
  Buffer.add_string b (Printf.sprintf "  (name %s)\n" t.name);
  Buffer.add_string b (Printf.sprintf "  (nodes %d)\n" t.nodes);
  Buffer.add_string b (Printf.sprintf "  (rto-ns %s)\n" (float_str t.rto_ns));
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "  (at %s %s)\n" (float_str e.at_ns)
           (action_to_sexp e.action)))
    t.events;
  List.iter
    (fun p ->
      Buffer.add_string b
        (Printf.sprintf "  (phase %s %s %s %s)\n" (float_str p.dur_ns)
           (float_str p.rate_tps) (float_str p.theta) (float_str p.hot_frac)))
    t.phases;
  Buffer.add_string b ")\n";
  Buffer.contents b

let parse_float what s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s: bad number %S" what s)

let parse_int what s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s: bad integer %S" what s)

let parse_endpoint what s =
  if s = "*" then Ok (-1) else parse_int what s

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let parse_int_list what l =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      match x with
      | Atom a ->
          let* i = parse_int what a in
          Ok (i :: acc)
      | L _ -> Error (Printf.sprintf "%s: expected integer" what))
    (Ok []) l
  |> Result.map List.rev

let parse_action = function
  | L [ Atom "crash"; Atom n ] ->
      let* n = parse_int "crash" n in
      Ok (Crash n)
  | L [ Atom "recover"; Atom n ] ->
      let* n = parse_int "recover" n in
      Ok (Recover n)
  | L [ Atom "cut"; L froms; L tos ] ->
      let* froms = parse_int_list "cut" froms in
      let* tos = parse_int_list "cut" tos in
      Ok (Cut { froms; tos })
  | L [ Atom "heal" ] -> Ok Heal
  | L [ Atom "loss"; Atom src; Atom dst; Atom p ] ->
      let* src = parse_endpoint "loss src" src in
      let* dst = parse_endpoint "loss dst" dst in
      let* p = parse_float "loss p" p in
      Ok (Loss { src; dst; p })
  | L [ Atom "delay"; Atom src; Atom dst; Atom f ] ->
      let* src = parse_endpoint "delay src" src in
      let* dst = parse_endpoint "delay dst" dst in
      let* factor = parse_float "delay factor" f in
      Ok (Delay { src; dst; factor })
  | L [ Atom "slow-nic"; Atom n; Atom f ] ->
      let* node = parse_int "slow-nic" n in
      let* factor = parse_float "slow-nic factor" f in
      Ok (Slow_nic { node; factor })
  | L [ Atom "degrade-cores"; Atom node; Atom n; Atom dur ] ->
      let* node = parse_int "degrade-cores node" node in
      let* n = parse_int "degrade-cores n" n in
      let* dur_ns = parse_float "degrade-cores dur" dur in
      Ok (Degrade_cores { node; n; dur_ns })
  | sx ->
      Error
        (Printf.sprintf "unknown action %s"
           (match sx with
           | Atom a -> a
           | L (Atom a :: _) -> Printf.sprintf "(%s ...)" a
           | L _ -> "(...)"))

let of_string s =
  match parse_sexp s with
  | Error _ as e -> e
  | Ok [ L (Atom "scenario" :: body) ] ->
      let name = ref None
      and nodes = ref None
      and rto_ns = ref 1_000.0
      and events = ref []
      and phases = ref [] in
      let result =
        List.fold_left
          (fun acc form ->
            let* () = acc in
            match form with
            | L [ Atom "name"; Atom n ] ->
                name := Some n;
                Ok ()
            | L [ Atom "nodes"; Atom n ] ->
                let* n = parse_int "nodes" n in
                nodes := Some n;
                Ok ()
            | L [ Atom "rto-ns"; Atom r ] ->
                let* r = parse_float "rto-ns" r in
                rto_ns := r;
                Ok ()
            | L [ Atom "at"; Atom time; act ] ->
                let* at_ns = parse_float "at" time in
                let* action = parse_action act in
                events := { at_ns; action } :: !events;
                Ok ()
            | L [ Atom "phase"; Atom d; Atom r; Atom th; Atom h ] ->
                let* dur_ns = parse_float "phase dur" d in
                let* rate_tps = parse_float "phase rate" r in
                let* theta = parse_float "phase theta" th in
                let* hot_frac = parse_float "phase hot_frac" h in
                phases := { dur_ns; rate_tps; theta; hot_frac } :: !phases;
                Ok ()
            | L (Atom a :: _) ->
                Error (Printf.sprintf "unknown scenario form (%s ...)" a)
            | _ -> Error "unknown scenario form")
          (Ok ()) body
      in
      let* () = result in
      let* name =
        match !name with Some n -> Ok n | None -> Error "missing (name ...)"
      in
      let* nodes =
        match !nodes with
        | Some n -> Ok n
        | None -> Error "missing (nodes ...)"
      in
      Ok
        (make ~name ~nodes ~rto_ns:!rto_ns ~phases:(List.rev !phases)
           (List.rev !events))
  | Ok _ -> Error "expected a single (scenario ...) form"

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> (
      match of_string s with
      | Ok _ as ok -> ok
      | Error m -> Error (Printf.sprintf "%s: %s" path m))
  | exception Sys_error m -> Error m

let save_file path t =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string t))

(* ------------------------------------------------------------------ *)
(* Compilation onto a run *)

let all_nodes t = List.init t.nodes (fun i -> i)

let expand_endpoint t n = if n = -1 then all_nodes t else [ n ]

(* Schedule one injection as engine events. Link state is sharded by
   source node, so a directive touching several sources becomes one
   event per source, tagged [~node:src] — each runs on the partition
   that owns the row it mutates. NIC directives run at their node.
   Crash/recover are untagged: they only run in closed-loop scenarios,
   on the one-partition engine, where tags are ignored. *)
let schedule_action t (sys : System.t) ~at action =
  let engine = sys.System.engine in
  let ctl = sys.System.control in
  match action with
  | Crash n -> Engine.at engine at (fun () -> Control.crash_node ctl ~node:n)
  | Recover n -> Engine.at engine at (fun () -> sys.System.recover_node ~node:n)
  | Cut { froms; tos } ->
      List.iter
        (fun src ->
          Engine.at ~node:src engine at (fun () ->
              List.iter
                (fun dst ->
                  if dst <> src then Control.net_set_cut ctl ~src ~dst true)
                tos))
        froms
  | Heal ->
      List.iter
        (fun src ->
          Engine.at ~node:src engine at (fun () ->
              List.iter
                (fun dst ->
                  if dst <> src then Control.net_set_cut ctl ~src ~dst false)
                (all_nodes t)))
        (all_nodes t)
  | Loss { src; dst; p } ->
      List.iter
        (fun src ->
          let dsts =
            List.filter (fun d -> d <> src) (expand_endpoint t dst)
          in
          Engine.at ~node:src engine at (fun () ->
              List.iter
                (fun dst -> Control.net_set_loss ctl ~src ~dst p)
                dsts))
        (expand_endpoint t src)
  | Delay { src; dst; factor } ->
      List.iter
        (fun src ->
          let dsts =
            List.filter (fun d -> d <> src) (expand_endpoint t dst)
          in
          Engine.at ~node:src engine at (fun () ->
              List.iter
                (fun dst -> Control.net_set_delay ctl ~src ~dst factor)
                dsts))
        (expand_endpoint t src)
  | Slow_nic { node; factor } ->
      Engine.at ~node engine at (fun () ->
          sys.System.set_nic_slowdown ~node factor)
  | Degrade_cores { node; n; dur_ns } ->
      Engine.at ~node engine at (fun () ->
          sys.System.degrade_nic_cores ~node ~n ~dur_ns)

let inject t (sys : System.t) ~seed =
  validate_exn t;
  let sys_nodes = sys.System.cfg.Xenic_cluster.Config.nodes in
  if t.nodes <> sys_nodes then
    invalid_arg
      (Printf.sprintf "Scenario.inject %s: scenario is for %d nodes, system \
                       has %d"
         t.name t.nodes sys_nodes);
  if has_link_faults t then
    Control.net_enable_faults sys.System.control ~seed ~rto_ns:t.rto_ns;
  let start = Engine.now sys.System.engine in
  List.iter
    (fun e -> schedule_action t sys ~at:(start +. e.at_ns) e.action)
    t.events

let openloop_phases t =
  List.map
    (fun p ->
      {
        Xenic_workload.Openloop.duration_ns = p.dur_ns;
        rate_tps = p.rate_tps;
        theta = p.theta;
        hot_frac = p.hot_frac;
      })
    t.phases

let scale_times t f =
  if (not (Float.is_finite f)) || Float.compare f 0.0 <= 0 then
    invalid_arg "Scenario.scale_times: factor must be > 0";
  {
    t with
    events =
      List.map
        (fun e ->
          let action =
            match e.action with
            | Degrade_cores d ->
                Degrade_cores { d with dur_ns = d.dur_ns *. f }
            | a -> a
          in
          { at_ns = e.at_ns *. f; action })
        t.events;
    phases = List.map (fun p -> { p with dur_ns = p.dur_ns *. f }) t.phases;
  }
