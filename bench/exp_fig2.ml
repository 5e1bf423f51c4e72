(* Figure 2: roundtrip latency of remote operations, for the LiquidIO
   SmartNIC (initiated from the host and from the NIC) and for CX5
   RDMA. 256 B payloads, unloaded 2-node ping. *)

open Xenic_sim
open Xenic_nicdev

type msg = { bytes : int; deliver : unit -> unit }

let payload_b = 256

(* One LiquidIO roundtrip: source (host or NIC) -> target NIC ->
   operation -> response. *)
let lio_rtt hw ~from_host op =
  let engine = Engine.create () in
  let fabric = Xenic_net.Fabric.create engine hw ~nodes:2 in
  let nics = Array.init 2 (fun _ -> Smartnic.create engine hw) in
  (* Dispatch loops paying the per-frame packet-I/O cost. *)
  Array.iteri
    (fun i nic ->
      Process.spawn engine (fun () ->
          let rx = Xenic_net.Fabric.rx fabric i in
          let rec loop () =
            let pkt = Mailbox.recv rx in
            Smartnic.pkt_io nic;
            List.iter
              (fun m -> Process.spawn engine m.deliver)
              pkt.Xenic_net.Packet.msgs;
            loop ()
          in
          loop ()))
    nics;
  let host_threads =
    Resource.create engine ~name:"host" ~servers:4
  in
  let result = ref nan in
  Process.spawn engine (fun () ->
      let start = Engine.now engine in
      if from_host then Smartnic.host_msg nics.(0);
      Smartnic.core_work nics.(0) ~ops:1 ~bytes:payload_b;
      Process.suspend (fun resume ->
          Xenic_net.Fabric.send fabric ~src:0 ~dst:1
            ~payload_bytes:(payload_b + hw.agg_msg_header_b)
            [
              {
                bytes = payload_b;
                deliver =
                  (fun () ->
                    Smartnic.core_work nics.(1) ~ops:1 ~bytes:payload_b;
                    (match op with
                    | `Nic_rpc -> ()
                    | `Read -> Xenic_pcie.Dma.read (Smartnic.dma nics.(1)) ~bytes:payload_b
                    | `Write -> Xenic_pcie.Dma.write (Smartnic.dma nics.(1)) ~bytes:payload_b
                    | `Host_rpc ->
                        Smartnic.host_msg nics.(1);
                        Resource.use host_threads hw.host_rpc_ns;
                        Smartnic.host_msg nics.(1));
                    Smartnic.core_work nics.(1) ~ops:1 ~bytes:0;
                    Xenic_net.Fabric.send fabric ~src:1 ~dst:0
                      ~payload_bytes:(payload_b + hw.agg_msg_header_b)
                      [
                        {
                          bytes = payload_b;
                          deliver =
                            (fun () ->
                              Smartnic.core_work nics.(0) ~ops:1 ~bytes:0;
                              resume ());
                        };
                      ]);
              };
            ]);
      (if from_host then Smartnic.host_msg nics.(0));
      result := Engine.now engine -. start);
  ignore (Engine.run engine);
  !result /. 1_000.0

let rdma_rtt hw op =
  let engine = Engine.create () in
  let fabric : msg Xenic_net.Fabric.t =
    Xenic_net.Fabric.create engine hw ~nodes:2
  in
  let rdma = Rdma.create fabric in
  let host_threads = Resource.create engine ~name:"host" ~servers:4 in
  Process.spawn engine (fun () ->
      let rx = Xenic_net.Fabric.rx fabric 1 in
      let rec loop () =
        let pkt = Mailbox.recv rx in
        List.iter (fun m -> Process.spawn engine m.deliver) pkt.Xenic_net.Packet.msgs;
        loop ()
      in
      loop ());
  Process.spawn engine (fun () ->
      let rx = Xenic_net.Fabric.rx fabric 0 in
      let rec loop () =
        let pkt = Mailbox.recv rx in
        List.iter (fun m -> Process.spawn engine m.deliver) pkt.Xenic_net.Packet.msgs;
        loop ()
      in
      loop ());
  let result = ref nan in
  Process.spawn engine (fun () ->
      let start = Engine.now engine in
      (match op with
      | `Read ->
          Rdma.one_sided rdma ~src:0 ~dst:1 Rdma.Read ~bytes:payload_b
            ~at_target:(fun () -> ())
      | `Write ->
          Rdma.one_sided rdma ~src:0 ~dst:1 Rdma.Write ~bytes:payload_b
            ~at_target:(fun () -> ())
      | `Host_rpc ->
          Process.suspend (fun resume ->
              Process.spawn engine (fun () ->
                  Rdma.rpc_send rdma ~src:0 ~dst:1 ~bytes:payload_b
                    {
                      bytes = payload_b;
                      deliver =
                        (fun () ->
                          Rdma.rpc_recv_cost rdma ~node:1;
                          Resource.use host_threads hw.host_rpc_ns;
                          Rdma.rpc_send rdma ~src:1 ~dst:0 ~bytes:payload_b
                            {
                              bytes = payload_b;
                              deliver =
                                (fun () ->
                                  Process.sleep engine
                                    hw.rdma_completion_poll_ns;
                                  resume ());
                            });
                    })));
      result := Engine.now engine -. start);
  ignore (Engine.run engine);
  !result /. 1_000.0

let run () =
  Common.section "Figure 2: remote operation roundtrip latency (256B)";
  let hw = Common.hw in
  let t =
    Xenic_stats.Table.create ~title:"(a) LiquidIO"
      ~columns:[ "operation"; "from NIC [us]"; "from host [us]" ]
  in
  List.iter
    (fun (name, op) ->
      Xenic_stats.Table.add_row t
        [
          name;
          Xenic_stats.Table.cellf (lio_rtt hw ~from_host:false op);
          Xenic_stats.Table.cellf (lio_rtt hw ~from_host:true op);
        ])
    [
      ("NIC RPC", `Nic_rpc);
      ("Read", `Read);
      ("Write", `Write);
      ("Host RPC", `Host_rpc);
    ];
  Xenic_stats.Table.print t;
  let t =
    Xenic_stats.Table.create ~title:"(b) CX5 RDMA"
      ~columns:[ "operation"; "RTT [us]" ]
  in
  List.iter
    (fun (name, op) ->
      Xenic_stats.Table.add_row t
        [ name; Xenic_stats.Table.cellf (rdma_rtt hw op) ])
    [ ("READ", `Read); ("WRITE", `Write); ("Host RPC", `Host_rpc) ];
  Xenic_stats.Table.print t;
  Common.note
    "Paper shape: NIC-local ops fastest; RDMA verbs beat host-initiated";
  Common.note
    "LiquidIO ops; host RPCs are the slowest; NIC-initiated beats 2-sided RDMA."
