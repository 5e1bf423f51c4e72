(* Per-layer simulated metrics of a finished run, computed from what
   the lib/ layers already expose: [System.resources] grouped by layer,
   the system's [Metrics] (counters, phase histograms, abort reasons)
   and [Openloop.run]'s shed counts. Everything here is simulated
   time or a count, so it is deterministic for a seed. *)

open Xenic_sim
open Xenic_proto

(* Resource label -> layer group. Labels are [<kind><node>] or
   [n<node>/<kind>[<index>]]; the kind decides the group. Unknown kinds
   land in the [unmapped] list, which is printed and counted, so a
   renamed resource shows up instead of silently vanishing. *)
let group_of_label label =
  let base =
    match String.index_opt label '/' with
    | Some i -> String.sub label (i + 1) (String.length label - i - 1)
    | None -> label
  in
  let kind =
    let n = ref (String.length base) in
    while !n > 0 && base.[!n - 1] >= '0' && base.[!n - 1] <= '9' do
      decr n
    done;
    String.sub base 0 !n
  in
  match kind with
  | "app" | "host" -> Some "proto.host"
  | "wrk" | "rwrk" -> Some "proto.worker"
  | "tx" | "rx" -> Some "net.link"
  | "dmaq" -> Some "pcie.dmaq"
  | "pcie-bus" -> Some "pcie.bus"
  | "nic-cores" -> Some "nicdev.core"
  | "nic-pkt-io" -> Some "nicdev.pkt_io"
  | "rdma" -> Some "nicdev.rdma"
  | _ -> None

(* Raw sums over one or more finished systems (the open-loop workload
   runs one fresh system per rate point). *)
type acc = {
  mutable committed : int;
  mutable attempted : int;
  busy : (string, float) Hashtbl.t;  (* group -> busy server-ns *)
  capacity : (string, float) Hashtbl.t;  (* group -> servers * elapsed ns *)
  qarea : (string, float) Hashtbl.t;  (* group -> waiter-ns *)
  mutable unmapped : string list;
  metrics : Metrics.t;  (* merged system metrics *)
  shed : int array;  (* open-loop window sheds, Admission.all_causes order *)
}

let create () =
  {
    committed = 0;
    attempted = 0;
    busy = Hashtbl.create 8;
    capacity = Hashtbl.create 8;
    qarea = Hashtbl.create 8;
    unmapped = [];
    metrics = Metrics.create ();
    shed = Array.make (List.length Admission.all_causes) 0;
  }

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

(* Fold one finished system into [acc]. [shed] is the open-loop window
   shed count per cause ([] for a closed loop). [elapsed_ns] is the
   simulated time from the run's start to its last transaction
   completion, which observers cannot move (a trace sampler's last
   tick can move the engine's final clock). Busy time also counts the
   post-run log drain, which is the same in every run of a seed. *)
let add acc (sys : System.t) ~elapsed_ns ~committed ~attempted ~shed =
  acc.committed <- acc.committed + committed;
  acc.attempted <- acc.attempted + attempted;
  List.iter
    (fun (label, r) ->
      match group_of_label label with
      | None ->
          if not (List.mem label acc.unmapped) then
            acc.unmapped <- label :: acc.unmapped
      | Some g ->
          bump acc.busy g (Resource.busy_time r);
          bump acc.capacity g (float_of_int (Resource.servers r) *. elapsed_ns);
          bump acc.qarea g (Resource.queue_area r))
    (sys.System.resources ());
  Metrics.merge ~into:acc.metrics (sys.System.metrics ());
  List.iteri (fun i n -> acc.shed.(i) <- acc.shed.(i) + n) shed

let ratio a b = if Float.compare b 0.0 > 0 then a /. b else 0.0

let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)

let phase_mean_us m phase =
  match List.assoc_opt phase (Metrics.phase_stats m) with
  | Some h -> Xenic_stats.Histogram.mean h /. 1_000.0
  | None -> 0.0

(* (name, unit, value) in a fixed order. *)
let metrics acc =
  let m = acc.metrics in
  let c = Metrics.counters m in
  let ctr k = Xenic_stats.Counter.get c k in
  let txns = float_of_int acc.committed in
  let attempts = float_of_int acc.attempted in
  let per_txn v = ratio v txns in
  let util g = ratio (get acc.busy g) (get acc.capacity g) in
  let wait g = per_txn (get acc.qarea g) in
  let paths = ctr "txns_local" +. ctr "txns_multihop" +. ctr "txns_distributed" in
  let abort r = ratio (float_of_int (Metrics.abort_reason_count m r)) attempts in
  let shed cause =
    let rec idx i = function
      | [] -> 0
      | c :: rest -> if c = cause then acc.shed.(i) else idx (i + 1) rest
    in
    ratio (float_of_int (idx 0 Admission.all_causes)) attempts
  in
  [
    ("proto.phase_execute_us", "us", phase_mean_us m "execute");
    ("proto.phase_validate_us", "us", phase_mean_us m "validate");
    ("proto.phase_log_us", "us", phase_mean_us m "log");
    ("proto.phase_commit_us", "us", phase_mean_us m "commit");
    ("proto.abort_lock_conflict_frac", "ratio", abort Metrics.Lock_conflict);
    ("proto.abort_validation_frac", "ratio", abort Metrics.Validation_failure);
    ("proto.abort_timeout_frac", "ratio", abort Metrics.Timeout);
    ("proto.abort_shed_frac", "ratio", abort Metrics.Shed);
    ("proto.shed_queue_frac", "ratio", shed Admission.Queue_full);
    ("proto.shed_backpressure_frac", "ratio", shed Admission.Backpressure);
    ("proto.shed_deadline_frac", "ratio", shed Admission.Deadline);
    ("proto.local_frac", "ratio", ratio (ctr "txns_local") paths);
    ("proto.multihop_frac", "ratio", ratio (ctr "txns_multihop") paths);
    ("proto.host_util", "ratio", util "proto.host");
    ("proto.worker_util", "ratio", util "proto.worker");
    ("proto.host_wait_ns_per_txn", "ns", wait "proto.host");
    (* RDMA stacks count two-sided RPCs and one-sided verbs, Xenic
       counts NIC-to-NIC messages; both are the wire operations. *)
    ("net.msgs_per_txn", "msgs/txn", per_txn (ctr "msgs" +. ctr "rpcs" +. ctr "verbs"));
    ("net.bytes_per_txn", "B/txn", per_txn (ctr "msg_bytes"));
    ("net.link_util", "ratio", util "net.link");
    ("net.link_wait_ns_per_txn", "ns", wait "net.link");
    ("pcie.dma_reads_per_txn", "ops/txn", per_txn (ctr "dma_reads"));
    ("pcie.dma_writes_per_txn", "ops/txn", per_txn (ctr "dma_writes"));
    ("pcie.dmaq_util", "ratio", util "pcie.dmaq");
    ("pcie.bus_util", "ratio", util "pcie.bus");
    ("pcie.dma_wait_ns_per_txn", "ns", wait "pcie.dmaq" +. wait "pcie.bus");
    ("nicdev.core_util", "ratio", util "nicdev.core");
    ("nicdev.core_wait_ns_per_txn", "ns", wait "nicdev.core");
    ("nicdev.pkt_io_util", "ratio", util "nicdev.pkt_io");
    ("nicdev.rdma_util", "ratio", util "nicdev.rdma");
    ("nicdev.rdma_wait_ns_per_txn", "ns", wait "nicdev.rdma");
    ("nicdev.verbs_per_txn", "ops/txn", per_txn (ctr "verbs"));
    ("unmapped.resources", "count", float_of_int (List.length acc.unmapped));
  ]

let unmapped acc = List.sort String.compare acc.unmapped

