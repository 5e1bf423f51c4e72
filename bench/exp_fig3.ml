(* Figure 3: remote memory write throughput, targeting SmartNIC DRAM
   and host DRAM, with and without batching; CX5 RDMA WRITE with
   doorbell batching for comparison. 5 clients -> 1 target, closed
   loop. *)

open Xenic_sim
open Xenic_nicdev

type msg = { bytes : int; deliver : unit -> unit }

let sizes = [ 16; 32; 64; 128; 256 ]

let clients = 5

(* Remote writes to the LiquidIO target; [to_host] adds the DMA to host
   memory, [batched] enables gather-list aggregation and vectored DMA. *)
let lio_write_tput hw ~to_host ~batched ~size =
  let engine = Engine.create () in
  let fabric = Xenic_net.Fabric.create engine hw ~nodes:(clients + 1) in
  let target = clients in
  let nic = Smartnic.create engine hw in
  Xenic_pcie.Dma.set_vectored (Smartnic.dma nic) batched;
  let aggs =
    Array.init clients (fun src ->
        Xenic_net.Aggregator.create fabric ~src ~enabled:batched
          ~dummy:{ bytes = 0; deliver = ignore })
  in
  let completed = ref 0 in
  Process.spawn engine (fun () ->
      let rx = Xenic_net.Fabric.rx fabric target in
      let rec loop () =
        let pkt = Mailbox.recv rx in
        Smartnic.pkt_io nic;
        List.iter (fun m -> Process.spawn engine m.deliver) pkt.Xenic_net.Packet.msgs;
        loop ()
      in
      loop ());
  (* Client-side dispatch loops deliver the acks back to the issuing
     slots. *)
  for c = 0 to clients - 1 do
    Process.spawn engine (fun () ->
        let rx = Xenic_net.Fabric.rx fabric c in
        let rec loop () =
          let pkt = Mailbox.recv rx in
          List.iter
            (fun m -> Process.spawn engine m.deliver)
            pkt.Xenic_net.Packet.msgs;
          loop ()
        in
        loop ())
  done;
  let outstanding = 192 in
  let horizon = Units.us (Common.scale 800 |> float_of_int) in
  for c = 0 to clients - 1 do
    for _ = 1 to outstanding do
      Process.spawn engine (fun () ->
          let rec loop () =
            if Engine.now engine < horizon then begin
              Process.suspend (fun resume ->
                  Xenic_net.Aggregator.push aggs.(c) ~dst:target ~bytes:size
                    {
                      bytes = size;
                      deliver =
                        (fun () ->
                          Smartnic.core_work nic ~ops:1 ~bytes:size;
                          if to_host then
                            Xenic_pcie.Dma.write (Smartnic.dma nic) ~bytes:size;
                          incr completed;
                          (* Ack response, aggregated likewise. *)
                          Xenic_net.Fabric.send fabric ~src:target ~dst:c
                            ~payload_bytes:16
                            [ { bytes = 16; deliver = resume } ]);
                    });
              loop ()
            end
          in
          loop ())
    done
  done;
  ignore (Engine.run ~until:horizon engine);
  float_of_int !completed /. (horizon /. 1e9) /. 1e6

let rdma_write_tput hw ~size =
  let engine = Engine.create () in
  let fabric : msg Xenic_net.Fabric.t =
    Xenic_net.Fabric.create engine hw ~nodes:(clients + 1)
  in
  let rdma = Rdma.create fabric in
  let target = clients in
  let completed = ref 0 in
  let horizon = Units.us (Common.scale 800 |> float_of_int) in
  for c = 0 to clients - 1 do
    for _ = 1 to 4 do
      Process.spawn engine (fun () ->
          let rec loop () =
            if Engine.now engine < horizon then begin
              (* Doorbell batch of up to 64 WRITEs. *)
              let batch =
                List.init hw.rdma_doorbell_batch (fun _ ->
                    ( target,
                      Rdma.Write,
                      size,
                      fun () -> incr completed ))
              in
              ignore (Rdma.one_sided_many rdma ~src:c batch);
              loop ()
            end
          in
          loop ())
    done
  done;
  ignore (Engine.run ~until:horizon engine);
  float_of_int !completed /. (horizon /. 1e9) /. 1e6

let run () =
  Common.section
    "Figure 3: remote write throughput [Mops/s] (5 clients, closed loop)";
  let hw = Common.hw in
  let t =
    Xenic_stats.Table.create ~title:"(a) NIC DRAM target"
      ~columns:[ "size [B]"; "LIO batched"; "LIO single"; "CX5 RDMA" ]
  in
  List.iter
    (fun size ->
      Xenic_stats.Table.add_row t
        [
          string_of_int size;
          Xenic_stats.Table.cellf (lio_write_tput hw ~to_host:false ~batched:true ~size);
          Xenic_stats.Table.cellf (lio_write_tput hw ~to_host:false ~batched:false ~size);
          Xenic_stats.Table.cellf (rdma_write_tput hw ~size);
        ])
    sizes;
  Xenic_stats.Table.print t;
  let t =
    Xenic_stats.Table.create ~title:"(b) Host DRAM target"
      ~columns:[ "size [B]"; "LIO batched"; "LIO single"; "CX5 RDMA" ]
  in
  List.iter
    (fun size ->
      Xenic_stats.Table.add_row t
        [
          string_of_int size;
          Xenic_stats.Table.cellf (lio_write_tput hw ~to_host:true ~batched:true ~size);
          Xenic_stats.Table.cellf (lio_write_tput hw ~to_host:true ~batched:false ~size);
          Xenic_stats.Table.cellf (rdma_write_tput hw ~size);
        ])
    sizes;
  Xenic_stats.Table.print t;
  Common.note "Paper shape: unbatched ~9-10 Mops/s flat; batching lifts NIC-DRAM";
  Common.note "writes to wire rate and host-DRAM writes to the DMA-engine bound;";
  Common.note "CX5 RDMA sits at 13.5-15 Mops/s across sizes."
