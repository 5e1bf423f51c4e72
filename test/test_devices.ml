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

(* A three-verb batch and three single verbs from two contexts, against
   a contended source unit (both contexts' first verbs), a target unit
   stalled by [degrade_unit] as the verbs arrive, a cut 0->2 link that
   heals while the batch's second verb polls it, a cut 2->0 link that
   heals while the last verb's response polls it, and an [at_target]
   that blocks for 300 ns. Pinned: every [at_target] and completion
   instant, the engine's event count, and each context's wait and
   service on every NIC unit and link. The values are those of the
   model in which each verb was a process sleeping through its stages
   and the batch forked a process per verb; a callback chain must
   schedule the same events at the same times. *)
let test_rdma_pipeline_pinned () =
  let engine = Engine.create () in
  let fabric = mk_fabric engine 3 in
  Xenic_net.Fabric.enable_faults fabric ~seed:1L ~rto_ns:1_000.0;
  let rdma = Rdma.create fabric in
  let log = ref [] in
  let note fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  let ctx phase = { Attrib.default with Attrib.stack = "T"; node = 0; phase } in
  Engine.set_attrib_enabled engine true;
  Xenic_net.Fabric.set_cut fabric ~src:0 ~dst:2 true;
  Engine.at engine 1_500.0 (fun () ->
      Xenic_net.Fabric.set_cut fabric ~src:0 ~dst:2 false);
  Engine.at engine 5_000.0 (fun () ->
      Xenic_net.Fabric.set_cut fabric ~src:2 ~dst:0 true);
  Engine.at engine 7_000.0 (fun () ->
      Xenic_net.Fabric.set_cut fabric ~src:2 ~dst:0 false);
  Engine.at engine 1_000.0 (fun () ->
      Rdma.degrade_unit rdma ~node:1 ~dur_ns:700.0);
  Engine.with_attrib engine (fun () ->
      Process.spawn engine (fun () ->
          Attrib.set (ctx "batch");
          let at i () =
            note "target %d at %.3f" i (Engine.now engine);
            i * 10
          in
          let rs =
            Rdma.one_sided_many rdma ~src:0
              [
                (1, Rdma.Read, 64, at 1);
                (2, Rdma.Write, 128, at 2);
                (1, Rdma.Cas, 16, at 3);
              ]
          in
          note "batch done at %.3f: %s" (Engine.now engine)
            (String.concat "," (List.map string_of_int rs));
          let r =
            Rdma.one_sided rdma ~src:0 ~dst:2 Rdma.Read ~bytes:32
              ~at_target:(at 4)
          in
          note "single done at %.3f: %d" (Engine.now engine) r);
      Process.spawn engine (fun () ->
          Attrib.set (ctx "rival");
          Rdma.one_sided rdma ~src:0 ~dst:1 Rdma.Write ~bytes:256
            ~at_target:(fun () ->
              note "rival target at %.3f" (Engine.now engine));
          note "rival done at %.3f" (Engine.now engine);
          let r =
            Rdma.one_sided rdma ~src:0 ~dst:1 Rdma.Write ~bytes:64
              ~at_target:(fun () ->
                Process.sleep engine 300.0;
                note "blocking target until %.3f" (Engine.now engine);
                5)
          in
          note "blocked done at %.3f: %d" (Engine.now engine) r));
  note "events %d" (Engine.run engine);
  List.iter
    (fun r ->
      List.iter
        (fun ((c : Attrib.ctx), (v : Resource.stat_view)) ->
          note "%s %s: service %.3f/%d wait %.3f/%d" (Resource.name r) c.phase
            v.v_service_ns v.v_services v.v_wait_ns v.v_waits)
        (Resource.stats r))
    (Rdma.resources rdma @ Xenic_net.Fabric.resources fabric);
  Alcotest.(check (list string))
    "instants, events and attribution"
    [
      "rival target at 2510.000";
      "target 1 at 2740.000";
      "target 3 at 2970.000";
      "target 2 at 3325.200";
      "rival done at 3642.800";
      "batch done at 4458.000: 10,20,30";
      "blocking target until 5819.040";
      "target 4 at 6612.720";
      "blocked done at 6951.840: 5";
      "single done at 8600.640: 40";
      "events 85";
      "rdma0 batch: service 560.000/8 wait 70.000/8";
      "rdma0 rival: service 280.000/4 wait 81.280/4";
      "rdma1 -: service 700.000/1 wait 0.000/1";
      "rdma1 batch: service 140.000/2 wait 1278.000/2";
      "rdma1 rival: service 140.000/2 wait 544.320/2";
      "rdma2 batch: service 140.000/2 wait 0.000/2";
      "tx0 batch: service 40.960/4 wait 0.000/4";
      "tx0 rival: service 40.320/2 wait 0.000/2";
      "rx0 batch: service 33.920/4 wait 0.000/4";
      "rx0 rival: service 12.800/2 wait 0.000/2";
      "tx1 batch: service 18.560/2 wait 0.000/2";
      "tx1 rival: service 12.800/2 wait 0.000/2";
      "rx1 batch: service 16.000/2 wait 0.000/2";
      "rx1 rival: service 40.320/2 wait 0.000/2";
      "tx2 batch: service 15.360/2 wait 0.000/2";
      "rx2 batch: service 24.960/2 wait 0.000/2";
    ]
    (List.rev !log)

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
  Alcotest.(check (float 1e-9)) "gbps to B/ns" 12.5 (Units.gbps 100.0)

let () =
  Alcotest.run "xenic_devices"
    [
      ( "rdma",
        [
          Alcotest.test_case "linearization" `Quick test_rdma_linearization;
          Alcotest.test_case "cas effect" `Quick test_rdma_cas_effect;
          Alcotest.test_case "doorbell batching" `Quick test_rdma_doorbell_batching;
          Alcotest.test_case "pipeline pinned" `Quick test_rdma_pipeline_pinned;
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
