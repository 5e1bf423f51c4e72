open Xenic_sim

type t = {
  engine : Engine.t;
  hw : Xenic_params.Hw.t;
  cores : Resource.t;
  pkt_io_path : Resource.t;
  dma : Xenic_pcie.Dma.t;
  mutable slowdown : float;
      (* gray-failure multiplier on NIC-side service times (>= 1);
         per-device and only read by events at this device's node, so
         partition-safe when mutations run as events at that node *)
}

let create ?cores engine (hw : Xenic_params.Hw.t) =
  let n_cores = match cores with Some n -> n | None -> hw.nic_cores in
  {
    engine;
    hw;
    cores = Resource.create engine ~name:"nic-cores" ~servers:n_cores;
    pkt_io_path = Resource.create engine ~name:"nic-pkt-io" ~servers:1;
    dma = Xenic_pcie.Dma.create engine hw;
    slowdown = 1.0;
  }

let set_slowdown t factor =
  if Float.compare factor 1.0 < 0 then
    invalid_arg "Smartnic.set_slowdown: factor must be >= 1";
  t.slowdown <- factor

(* Take [n] SoC cores out of service for [dur_ns]: each holder occupies
   one core like any unit of work, so queueing, utilization gauges and
   the ingress-occupancy backpressure signal all see the degradation
   through the ordinary resource accounting. At least one core is left
   serving. *)
let degrade_cores t ~n ~dur_ns =
  if Float.compare dur_ns 0.0 <= 0 then
    invalid_arg "Smartnic.degrade_cores: dur_ns must be > 0";
  let n = min n (Resource.servers t.cores - 1) in
  for _ = 1 to n do
    Resource.use_then t.cores dur_ns ignore
  done

let engine t = t.engine

let hw t = t.hw

let cores t = t.cores

let dma t = t.dma

let pkt_io_ns t = t.hw.nic_pkt_io_ns *. t.slowdown

let pkt_io t = Resource.use t.pkt_io_path (pkt_io_ns t)

let pkt_io_path t = t.pkt_io_path

let op_cost t ~ops ~bytes =
  ((float_of_int ops *. t.hw.nic_core_op_ns)
  +. (float_of_int bytes *. t.hw.nic_core_byte_ns))
  *. t.slowdown

let core_work t ~ops ~bytes = Resource.use t.cores (op_cost t ~ops ~bytes)

let core_work_then t ~ops ~bytes k =
  Resource.use_then t.cores (op_cost t ~ops ~bytes) k

let core_work_held t ~ops ~bytes = Process.sleep t.engine (op_cost t ~ops ~bytes)

let mem_access t = Process.sleep t.engine (t.hw.nic_mem_access_ns *. t.slowdown)

let host_msg t = Process.sleep t.engine t.hw.host_nic_msg_ns

let scaled_exec_ns t host_ns = host_ns /. t.hw.nic_core_speed_ratio

(* Instantaneous ingress pressure: the most loaded of the SoC core
   pool, the packet-I/O path and the DMA queues, where 1.0 means every
   server busy and > 1.0 means a backlog is queueing behind them. *)
let ingress_occupancy t =
  let frac r =
    float_of_int (Resource.in_use r + Resource.queue_length r)
    /. float_of_int (Resource.servers r)
  in
  Float.max (frac t.cores)
    (Float.max (frac t.pkt_io_path) (Xenic_pcie.Dma.occupancy t.dma))

let resources t = [ t.cores; t.pkt_io_path ] @ Xenic_pcie.Dma.resources t.dma
