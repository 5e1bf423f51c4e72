open Xenic_sim
open Xenic_net

type verb = Read | Write | Cas

type 'm t = {
  fabric : 'm Fabric.t;
  hw : Xenic_params.Hw.t;
  units : Resource.t array;  (* per-node NIC processing unit *)
  slow : float array;
      (* gray-failure multiplier on each node's NIC unit service time
         (>= 1); slot [n] is only read by work running at node [n], so
         mutations scheduled as events at that node are partition-safe *)
  verbs_arr : int array;
      (* verb count sharded by initiator node, so issuing is race-free
         under the windowed parallel engine; the total is a sum *)
}

(* Wire header sizes for verbs: transport + RETH/AETH-style headers. *)
let req_header_b = 28

let resp_header_b = 16

let cas_payload_b = 16

let create fabric =
  let hw = Fabric.hw fabric in
  {
    fabric;
    hw;
    units =
      Array.init (Fabric.nodes fabric) (fun i ->
          Resource.create (Fabric.engine fabric)
            ~name:(Printf.sprintf "rdma%d" i)
            ~servers:1);
    slow = Array.make (Fabric.nodes fabric) 1.0;
    verbs_arr = Array.make (Fabric.nodes fabric) 0;
  }

(* NIC-unit service time at [node] under the current degradation. *)
let unit_ns t ~node = t.hw.rdma_hw_op_ns *. t.slow.(node)

let set_slowdown t ~node factor =
  if Float.compare factor 1.0 < 0 then
    invalid_arg "Rdma.set_slowdown: factor must be >= 1";
  t.slow.(node) <- factor

(* Stall [node]'s NIC processing unit for [dur_ns]: the holder occupies
   the single unit through the ordinary resource accounting, so queueing
   and occupancy gauges see the degradation. *)
let degrade_unit t ~node ~dur_ns =
  if Float.compare dur_ns 0.0 <= 0 then
    invalid_arg "Rdma.degrade_unit: dur_ns must be > 0";
  Resource.use_then t.units.(node) dur_ns ignore

let hw t = t.hw

let engine t = Fabric.engine t.fabric

let request_bytes t verb ~bytes =
  ignore t;
  match verb with
  | Read -> req_header_b
  | Write -> req_header_b + bytes
  | Cas -> req_header_b + cas_payload_b

let response_bytes t verb ~bytes =
  ignore t;
  match verb with
  | Read -> resp_header_b + bytes
  | Write -> resp_header_b
  | Cas -> resp_header_b + 8

let target_pcie_ns t = function
  | Read -> t.hw.rdma_target_read_pcie_ns
  | Write -> t.hw.rdma_target_write_pcie_ns
  | Cas ->
      (* CAS is a PCIe read-modify-write on host memory. *)
      t.hw.rdma_target_read_pcie_ns +. (0.5 *. t.hw.rdma_target_write_pcie_ns)

(* A verb is one record and one step closure, not a process: the step
   is scheduled for each stage's end — the doorbell (first verb of a
   batch only), the source NIC-unit hold, the request's wire leg, the
   target-unit hold, the target's PCIe access, the response's wire leg,
   the source-unit hold and the completion poll — the events a process
   sleeping, using the units and crossing the links would run. Every
   hold is attributed to the issuer's context, captured when the verb
   is issued, and [at_target] and the completion run under it. *)
type ('m, 'a) op = {
  rdma : 'm t;
  o_src : int;
  o_dst : int;
  o_verb : verb;
  o_bytes : int;
  o_ctx : Attrib.ctx;
  o_at_target : unit -> 'a;
  mutable o_k : 'a -> unit;
  mutable o_result : 'a option;
  mutable o_stage : int;
      (* what the next step does: 0 hold the source unit; 1 send the
         request; 2 hold the target unit; 3 access host memory; 4 run
         [at_target] and send the response; 5 hold the source unit; 6
         poll the completion; 7 complete *)
  mutable o_step : unit -> unit;
}

let hold o ~node =
  let t = o.rdma in
  o.o_stage <- o.o_stage + 1;
  Resource.hold_then t.units.(node) o.o_ctx (unit_ns t ~node) o.o_step

let respond o r =
  let t = o.rdma in
  o.o_result <- Some r;
  o.o_stage <- 5;
  Fabric.carry t.fabric ~src:o.o_dst ~dst:o.o_src
    ~payload_bytes:(response_bytes t o.o_verb ~bytes:o.o_bytes)
    o.o_ctx o.o_step

let step o =
  let t = o.rdma and src = o.o_src and dst = o.o_dst in
  match o.o_stage with
  | 0 | 5 -> hold o ~node:src
  | 2 -> hold o ~node:dst
  | 1 ->
      Resource.release_as t.units.(src) o.o_ctx;
      o.o_stage <- 2;
      Fabric.carry t.fabric ~src ~dst
        ~payload_bytes:(request_bytes t o.o_verb ~bytes:o.o_bytes)
        o.o_ctx o.o_step
  | 3 ->
      Resource.release_as t.units.(dst) o.o_ctx;
      o.o_stage <- 4;
      Engine.after (engine t) (target_pcie_ns t o.o_verb) o.o_step
  | 4 -> (
      let ambient = Attrib.swap o.o_ctx in
      match o.o_at_target () with
      | r ->
          Attrib.set ambient;
          respond o r
      | exception Process.Not_in_process ->
          (* [at_target] blocked (a log append waiting for space): it
             runs again from the start in a process of its own, which
             answers once it returns — where the verb's own process
             resumed. *)
          Process.spawn (engine t) (fun () -> respond o (o.o_at_target ()));
          Attrib.set ambient)
  | 6 ->
      Resource.release_as t.units.(src) o.o_ctx;
      o.o_stage <- 7;
      Engine.after (engine t) t.hw.rdma_completion_poll_ns o.o_step
  | _ -> (
      match o.o_result with
      | Some r ->
          let ambient = Attrib.swap o.o_ctx in
          o.o_k r;
          Attrib.set ambient
      | None -> assert false)

let op t ~src ~dst verb ~bytes ~at_target k =
  let o =
    {
      rdma = t;
      o_src = src;
      o_dst = dst;
      o_verb = verb;
      o_bytes = bytes;
      o_ctx = Attrib.get ();
      o_at_target = at_target;
      o_k = k;
      o_result = None;
      o_stage = 0;
      o_step = ignore;
    }
  in
  o.o_step <- (fun () -> step o);
  o

(* [doorbell] charges the initiator doorbell; a batch pays it once. *)
let start o ~doorbell =
  let t = o.rdma in
  t.verbs_arr.(o.o_src) <- t.verbs_arr.(o.o_src) + 1;
  if doorbell then Engine.after (engine t) t.hw.rdma_submit_ns o.o_step
  else step o

let post t ~src ~dst verb ~bytes ~doorbell ~at_target k =
  start (op t ~src ~dst verb ~bytes ~at_target k) ~doorbell

let one_sided t ~src ~dst verb ~bytes ~at_target =
  let o = op t ~src ~dst verb ~bytes ~at_target ignore in
  Process.suspend (fun resume ->
      o.o_k <- resume;
      start o ~doorbell:true)

let rec post_batch t ~src j i = function
  | [] -> ()
  | (dst, verb, bytes, at_target) :: rest ->
      post t ~src ~dst verb ~bytes ~doorbell:(i = 0) ~at_target
        (Process.arrive j i);
      post_batch t ~src j (i + 1) rest

let one_sided_many t ~src verbs =
  match verbs with
  | [] -> []
  | [ (dst, verb, bytes, at_target) ] ->
      [ one_sided t ~src ~dst verb ~bytes ~at_target ]
  | _ ->
      let j = Process.join (List.length verbs) in
      post_batch t ~src j 0 verbs;
      Process.await j

(* A SEND is one record and one step closure, not a process: the step
   is scheduled for the doorbell's end and the NIC unit hold's end —
   the events a process sleeping, then using the unit, would run — and
   the last step puts the frame on the fabric. Both are attributed to
   the sender's context, captured at [rpc_send]. *)
type 'm send = {
  rdma : 'm t;
  s_src : int;
  s_dst : int;
  s_bytes : int;
  s_msg : 'm;
  s_ctx : Attrib.ctx;
  mutable on_unit : bool;
  mutable s_step : unit -> unit;
}

let send_step s =
  let t = s.rdma and src = s.s_src in
  if not s.on_unit then begin
    s.on_unit <- true;
    Resource.hold_then t.units.(src) s.s_ctx (unit_ns t ~node:src) s.s_step
  end
  else begin
    Resource.release_as t.units.(src) s.s_ctx;
    let ambient = Attrib.swap s.s_ctx in
    Fabric.send t.fabric ~src ~dst:s.s_dst
      ~payload_bytes:(req_header_b + s.s_bytes) [ s.s_msg ];
    Attrib.set ambient
  end

let rpc_send t ~src ~dst ~bytes msg =
  t.verbs_arr.(src) <- t.verbs_arr.(src) + 1;
  let s =
    {
      rdma = t;
      s_src = src;
      s_dst = dst;
      s_bytes = bytes;
      s_msg = msg;
      s_ctx = Attrib.get ();
      on_unit = false;
      s_step = ignore;
    }
  in
  s.s_step <- (fun () -> send_step s);
  Engine.after (engine t) t.hw.rdma_submit_ns s.s_step

let rpc_recv_cost t ~node =
  (* Target NIC DMA-writes the receive buffer, then the polling host
     thread picks it up. *)
  Resource.use t.units.(node) (unit_ns t ~node);
  Process.sleep (engine t) t.hw.rdma_target_write_pcie_ns

let unit_busy t ~node =
  Resource.in_use t.units.(node) + Resource.queue_length t.units.(node)

let resources t = Array.to_list t.units
