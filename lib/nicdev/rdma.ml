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

(* [pay_submit] charges the initiator doorbell; a batch pays it once. *)
let post ~pay_submit t ~src ~dst verb ~bytes ~at_target =
  t.verbs_arr.(src) <- t.verbs_arr.(src) + 1;
  if pay_submit then Process.sleep (engine t) t.hw.rdma_submit_ns;
  Resource.use t.units.(src) (unit_ns t ~node:src);
  Fabric.transfer t.fabric ~src ~dst
    ~payload_bytes:(request_bytes t verb ~bytes);
  Resource.use t.units.(dst) (unit_ns t ~node:dst);
  Process.sleep (engine t) (target_pcie_ns t verb);
  let result = at_target () in
  Fabric.transfer t.fabric ~src:dst ~dst:src
    ~payload_bytes:(response_bytes t verb ~bytes);
  Resource.use t.units.(src) (unit_ns t ~node:src);
  Process.sleep (engine t) t.hw.rdma_completion_poll_ns;
  result

let one_sided t ~src ~dst verb ~bytes ~at_target =
  post ~pay_submit:true t ~src ~dst verb ~bytes ~at_target

let one_sided_many t ~src verbs =
  match verbs with
  | [] -> []
  | (dst, verb, bytes, at_target) :: rest ->
      let first () =
        post ~pay_submit:true t ~src ~dst verb ~bytes ~at_target
      in
      let others =
        List.map
          (fun (dst, verb, bytes, at_target) () ->
            post ~pay_submit:false t ~src ~dst verb ~bytes ~at_target)
          rest
      in
      Process.parallel (engine t) (first :: others)

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
    let ambient = Attrib.get () in
    Attrib.set s.s_ctx;
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
