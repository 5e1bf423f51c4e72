open Xenic_stats

(* Why a transaction attempt ultimately aborted. Every abort path in
   the protocol stacks maps to exactly one of these — the variant makes
   an "unknown" reason unrepresentable. *)
type abort_reason =
  | Lock_conflict
  | Validation_failure
  | Timeout
  | Stale_epoch
  | Crashed_owner
  | Shed

let abort_reason_name = function
  | Lock_conflict -> "lock-conflict"
  | Validation_failure -> "validation-failure"
  | Timeout -> "timeout"
  | Stale_epoch -> "stale-epoch"
  | Crashed_owner -> "crashed-owner"
  | Shed -> "shed"

let all_abort_reasons =
  [
    Lock_conflict;
    Validation_failure;
    Timeout;
    Stale_epoch;
    Crashed_owner;
    Shed;
  ]

let reason_index = function
  | Lock_conflict -> 0
  | Validation_failure -> 1
  | Timeout -> 2
  | Stale_epoch -> 3
  | Crashed_owner -> 4
  | Shed -> 5

type t = {
  latencies : Histogram.t;
  abort_latencies : Histogram.t;
  mutable committed : int;
  mutable aborted : int;
  by_class : (string, int) Hashtbl.t;
  by_class_aborts : (string, int) Hashtbl.t;
  abort_reasons : int array;
  phases : (string, Histogram.t) Hashtbl.t;
  counters : Counter.t;
}

let create () =
  {
    latencies = Histogram.create ();
    abort_latencies = Histogram.create ();
    committed = 0;
    aborted = 0;
    by_class = Hashtbl.create 8;
    by_class_aborts = Hashtbl.create 8;
    abort_reasons = Array.make (List.length all_abort_reasons) 0;
    phases = Hashtbl.create 8;
    counters = Counter.create ();
  }

let record t ~latency_ns outcome =
  match outcome with
  | Types.Committed ->
      t.committed <- t.committed + 1;
      Histogram.record t.latencies latency_ns
  | Types.Aborted ->
      t.aborted <- t.aborted + 1;
      Histogram.record t.abort_latencies latency_ns

let bump tbl cls =
  Hashtbl.replace tbl cls
    (1 + Option.value ~default:0 (Hashtbl.find_opt tbl cls))

let record_class t ~cls ~latency_ns outcome =
  record t ~latency_ns outcome;
  match outcome with
  | Types.Committed -> bump t.by_class cls
  | Types.Aborted -> bump t.by_class_aborts cls

let record_abort_reason t reason =
  let i = reason_index reason in
  t.abort_reasons.(i) <- t.abort_reasons.(i) + 1

let abort_reason_count t reason = t.abort_reasons.(reason_index reason)

let abort_reason_counts t =
  List.map
    (fun r -> (abort_reason_name r, abort_reason_count t r))
    all_abort_reasons

let record_phase t ~phase latency_ns =
  let h =
    match Hashtbl.find_opt t.phases phase with
    | Some h -> h
    | None ->
        let h = Histogram.create () in
        Hashtbl.add t.phases phase h;
        h
  in
  Histogram.record h latency_ns

let phase_stats t =
  Hashtbl.fold (fun phase h acc -> (phase, h) :: acc) t.phases []
  |> List.sort compare

let committed t = t.committed

let aborted t = t.aborted

let committed_class t ~cls =
  Option.value ~default:0 (Hashtbl.find_opt t.by_class cls)

let aborted_class t ~cls =
  Option.value ~default:0 (Hashtbl.find_opt t.by_class_aborts cls)

let median_latency t = Histogram.median t.latencies

let p99_latency t = Histogram.p99 t.latencies

let abort_latency_quantile t q = Histogram.quantile t.abort_latencies q

let median_abort_latency t = Histogram.median t.abort_latencies

let abort_rate t =
  let total = t.committed + t.aborted in
  if total = 0 then 0.0 else float_of_int t.aborted /. float_of_int total

let counters t = t.counters

let merge_tbl ~into src =
  Hashtbl.fold (fun cls n acc -> (cls, n) :: acc) src []
  |> List.sort compare
  |> List.iter (fun (cls, n) ->
         Hashtbl.replace into cls
           (n + Option.value ~default:0 (Hashtbl.find_opt into cls)))

let merge ~into src =
  Histogram.merge ~into:into.latencies src.latencies;
  Histogram.merge ~into:into.abort_latencies src.abort_latencies;
  into.committed <- into.committed + src.committed;
  into.aborted <- into.aborted + src.aborted;
  merge_tbl ~into:into.by_class src.by_class;
  merge_tbl ~into:into.by_class_aborts src.by_class_aborts;
  Array.iteri
    (fun i n -> into.abort_reasons.(i) <- into.abort_reasons.(i) + n)
    src.abort_reasons;
  Hashtbl.fold (fun phase h acc -> (phase, h) :: acc) src.phases []
  |> List.sort compare
  |> List.iter (fun (phase, h) ->
         match Hashtbl.find_opt into.phases phase with
         | Some dst -> Histogram.merge ~into:dst h
         | None ->
             let dst = Histogram.create () in
             Histogram.merge ~into:dst h;
             Hashtbl.add into.phases phase dst);
  List.iter
    (fun (name, v) -> Counter.addf into.counters name v)
    (Counter.to_list src.counters)

let clear t =
  Histogram.clear t.latencies;
  Histogram.clear t.abort_latencies;
  t.committed <- 0;
  t.aborted <- 0;
  Hashtbl.reset t.by_class;
  Hashtbl.reset t.by_class_aborts;
  Array.fill t.abort_reasons 0 (Array.length t.abort_reasons) 0;
  Hashtbl.reset t.phases;
  Counter.reset t.counters
