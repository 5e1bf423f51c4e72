(* Device-model semantics: RDMA verb timing and linearization, doorbell
   batching, SmartNIC cost helpers, and hardware-parameter sanity. *)

open Xenic_sim
open Xenic_nicdev

let hw = Xenic_params.Hw.testbed

type msg = { bytes : int; deliver : unit -> unit }

let mk_fabric engine nodes : msg Xenic_net.Fabric.t =
  Xenic_net.Fabric.create engine hw ~nodes

(* One-sided verbs must execute [at_target] strictly before the caller
   resumes, and the caller must resume strictly after a full RTT. *)
let test_rdma_linearization () =
  let engine = Engine.create () in
  let fabric = mk_fabric engine 2 in
  let rdma = Rdma.create fabric in
  let target_time = ref nan and done_time = ref nan in
  Process.spawn engine (fun () ->
      Rdma.one_sided rdma ~src:0 ~dst:1 Rdma.Read ~bytes:64
        ~at_target:(fun () -> target_time := Engine.now engine);
      done_time := Engine.now engine);
  ignore (Engine.run engine);
  Alcotest.(check bool) "target before completion" true (!target_time < !done_time);
  Alcotest.(check bool) "target after one wire hop" true
    (!target_time >= hw.wire_latency_ns);
  Alcotest.(check bool) "rtt at least two wire hops" true
    (!done_time >= 2.0 *. hw.wire_latency_ns)

(* CAS must apply its effect exactly once, at the target. *)
let test_rdma_cas_effect () =
  let engine = Engine.create () in
  let fabric = mk_fabric engine 2 in
  let rdma = Rdma.create fabric in
  let lock = ref None in
  let outcomes = ref [] in
  for owner = 1 to 3 do
    Process.spawn engine (fun () ->
        let got =
          Rdma.one_sided rdma ~src:0 ~dst:1 Rdma.Cas ~bytes:16
            ~at_target:(fun () ->
              match !lock with
              | None ->
                  lock := Some owner;
                  true
              | Some _ -> false)
        in
        outcomes := got :: !outcomes)
  done;
  ignore (Engine.run engine);
  Alcotest.(check int) "exactly one winner" 1
    (List.length (List.filter Fun.id !outcomes));
  Alcotest.(check bool) "lock held" true (!lock <> None)

(* A doorbell batch amortizes the submission cost: N verbs behind one
   doorbell must finish faster than N sequential verbs. *)
let test_rdma_doorbell_batching () =
  let n = 16 in
  let run f =
    let engine = Engine.create () in
    let fabric = mk_fabric engine 2 in
    let rdma = Rdma.create fabric in
    let finish = ref nan in
    Process.spawn engine (fun () ->
        f rdma;
        finish := Engine.now engine);
    ignore (Engine.run engine);
    !finish
  in
  let batched =
    run (fun rdma ->
        ignore
          (Rdma.one_sided_many rdma ~src:0
             (List.init n (fun _ -> (1, Rdma.Write, 64, fun () -> ())))))
  in
  let sequential =
    run (fun rdma ->
        for _ = 1 to n do
          Rdma.one_sided rdma ~src:0 ~dst:1 Rdma.Write ~bytes:64
            ~at_target:(fun () -> ())
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "batched %.0f < sequential %.0f" batched sequential)
    true (batched < sequential /. 2.0)

let test_smartnic_costs () =
  let engine = Engine.create () in
  let nic = Smartnic.create engine hw in
  Alcotest.(check (float 1e-9)) "scaled exec" (1000.0 /. hw.nic_core_speed_ratio)
    (Smartnic.scaled_exec_ns nic 1000.0);
  let t = ref nan in
  Process.spawn engine (fun () ->
      Smartnic.host_msg nic;
      Smartnic.mem_access nic;
      t := Engine.now engine);
  ignore (Engine.run engine);
  Alcotest.(check (float 1e-6)) "host msg + mem access"
    (hw.host_nic_msg_ns +. hw.nic_mem_access_ns)
    !t

(* Cores are a real bottleneck: more concurrent handler work than cores
   must serialize. *)
let test_smartnic_core_contention () =
  let engine = Engine.create () in
  let nic = Smartnic.create ~cores:2 engine hw in
  let finished = ref [] in
  for i = 1 to 4 do
    Process.spawn engine (fun () ->
        Smartnic.core_work nic ~ops:1 ~bytes:0;
        finished := (i, Engine.now engine) :: !finished)
  done;
  ignore (Engine.run engine);
  let times = List.map snd !finished in
  let mx = List.fold_left max 0.0 times in
  Alcotest.(check bool) "two waves" true
    (mx >= 2.0 *. hw.nic_core_op_ns -. 1e-6)

(* Hardware constants must stay consistent with the §3 measurements
   they encode. *)
let test_hw_calibration_sanity () =
  (* NIC RPC echo: 16 threads / per-op cost ~ 71.8 Mops/s. *)
  let nic_mops = 16.0 /. hw.nic_core_op_ns *. 1_000.0 in
  Alcotest.(check bool) "NIC RPC rate ~71.8M" true
    (nic_mops > 65.0 && nic_mops < 80.0);
  let host_mops = 16.0 /. hw.host_rpc_ns *. 1_000.0 in
  Alcotest.(check bool) "host RPC rate ~23M" true
    (host_mops > 20.0 && host_mops < 26.0);
  let dma_mops = 1_000.0 /. hw.dma_engine_elem_ns in
  Alcotest.(check bool) "per-queue DMA ~8.7M" true
    (dma_mops > 8.0 && dma_mops < 9.5);
  let rdma_mops = 1_000.0 /. hw.rdma_hw_op_ns in
  Alcotest.(check bool) "RDMA rate 13.5-15M" true
    (rdma_mops > 12.0 && rdma_mops < 16.0);
  Alcotest.(check bool) "ratio is Table 1's" true
    (abs_float (hw.nic_core_speed_ratio -. (4530.0 /. 14771.0)) < 0.01)

let test_units () =
  Alcotest.(check (float 1e-9)) "us" 1_500.0 (Units.us 1.5);
  Alcotest.(check (float 1e-9)) "gbps to B/ns" 12.5 (Units.gbps 100.0);
  Alcotest.(check (float 1e-9)) "mops" 100.0 (Units.mops_to_ns_per_op 10.0)

let () =
  Alcotest.run "xenic_devices"
    [
      ( "rdma",
        [
          Alcotest.test_case "linearization" `Quick test_rdma_linearization;
          Alcotest.test_case "cas effect" `Quick test_rdma_cas_effect;
          Alcotest.test_case "doorbell batching" `Quick test_rdma_doorbell_batching;
        ] );
      ( "smartnic",
        [
          Alcotest.test_case "costs" `Quick test_smartnic_costs;
          Alcotest.test_case "core contention" `Quick test_smartnic_core_contention;
        ] );
      ( "params",
        [
          Alcotest.test_case "calibration sanity" `Quick test_hw_calibration_sanity;
          Alcotest.test_case "units" `Quick test_units;
        ] );
    ]
