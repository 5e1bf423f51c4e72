(* Trace experiment: run Smallbank with the execution trace attached on
   both the Xenic stack and a DrTM+H baseline, check that two same-seed
   runs export byte-identical Chrome trace JSON (the determinism
   acceptance bar for the observability layer), write the trace files,
   and print the per-phase latency breakdown and abort-reason taxonomy
   the trace feeds. *)

open Xenic_sim
open Xenic_proto
open Xenic_workload

let params () =
  { Smallbank.default_params with accounts_per_node = Common.scale 20_000 }

let traced_run mk_sys =
  let p = params () in
  let sys = mk_sys () in
  Smallbank.load p sys;
  let tr = Trace.create sys.System.engine in
  let spec =
    Smallbank.spec p ~nodes:sys.System.cfg.Xenic_cluster.Config.nodes
  in
  let result =
    Driver.run ~seed:7L sys spec ~trace:tr ~concurrency:8
      ~target:(Common.scale 2_000)
  in
  (tr, sys, result)

let span_count tr =
  List.length
    (List.filter
       (function Trace.Span _ -> true | _ -> false)
       (Trace.events tr))

let counter_count tr =
  List.length
    (List.filter
       (function Trace.Counter _ -> true | _ -> false)
       (Trace.events tr))

let run_system ~label mk_sys =
  let tr1, sys, result = traced_run mk_sys in
  let tr2, _, _ = traced_run mk_sys in
  let json1 = Trace.to_chrome_json tr1 in
  let json2 = Trace.to_chrome_json tr2 in
  let drops = Trace.dropped tr1 + Trace.dropped tr2 in
  (* A truncated buffer is not comparable: the surviving prefix can be
     byte-identical while the runs diverged past the limit, so drops
     fail the determinism bar outright. *)
  let deterministic = String.equal json1 json2 && drops = 0 in
  if drops > 0 then
    Common.note
      "%s: WARNING: %d trace events dropped (buffer limit) -- raise the \
       trace limit or lower the target"
      label drops;
  let path = Printf.sprintf "TRACE_%s.json" label in
  let oc = open_out path in
  output_string oc json1;
  close_out oc;
  Common.note
    "%s: %d events (%d spans, %d counter samples, %d dropped) -> %s" label
    (Trace.count tr1) (span_count tr1) (counter_count tr1) (Trace.dropped tr1)
    path;
  Common.note "%s: same-seed reruns byte-identical: %s" label
    (if deterministic then "yes" else "NO -- DETERMINISM VIOLATION");
  let m = sys.System.metrics () in
  let reason_total =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Metrics.abort_reason_counts m)
  in
  Common.note
    "%s: %d committed, %d aborted; taxonomy covers %d/%d aborts" label
    result.Driver.committed (Metrics.aborted m) reason_total
    (Metrics.aborted m);
  Common.json_int (label ^ " trace events") (Trace.count tr1);
  Common.json_int (label ^ " trace spans") (span_count tr1);
  Common.json_int (label ^ " trace deterministic")
    (if deterministic then 1 else 0);
  Common.json_int (label ^ " trace dropped") (Trace.dropped tr1);
  Common.json_int (label ^ " aborts with reason") reason_total;
  Common.json_int (label ^ " aborts total") (Metrics.aborted m);
  (label, m)

let run () =
  Common.section "Trace: deterministic phase/utilization tracing (Smallbank)";
  let p = params () in
  let mk stack () =
    System.create ~nodes:Common.cluster_nodes ~replication:Common.replication
      ~xenic:
        {
          Xenic_system.default_params with
          cache_capacity = 2 * p.Smallbank.accounts_per_node;
        }
      ~store_cfg:(Smallbank.store_cfg p)
      ~buckets:(Smallbank.chained_buckets p) stack
  in
  let series =
    [
      run_system ~label:"xenic" (mk System.Xenic);
      run_system ~label:"drtmh" (mk System.Drtmh);
    ]
  in
  Common.print_phase_breakdown ~title:"Trace: Smallbank" series;
  Common.print_abort_reasons ~title:"Trace: Smallbank" series
