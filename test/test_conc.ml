(* The multi-core machine: scheduler determinism, single-core
   byte-identity with the pre-multi-core machine (across the minic
   corpus and a kv run), coherence/FliT behaviour of the concurrent
   structures, and the model checker's schedule enumeration.  The
   crash-at-any-event durability sweep is the conc workload of
   test_faultinject. *)

module Runtime = Nvml_runtime.Runtime
module Cluster = Nvml_runtime.Cluster
module Cpu = Nvml_arch.Cpu
module Multicore = Nvml_arch.Multicore
module Flit = Nvml_structures.Flit
module Conc_counter = Nvml_structures.Conc_counter
module Conc_list = Nvml_structures.Conc_list
module Conc_workload = Nvml_structures.Conc_workload
module Registry = Nvml_structures.Registry
module Intf = Nvml_structures.Intf
module Workload = Nvml_ycsb.Workload
module Corpus = Nvml_minic.Corpus
module Interp = Nvml_minic.Interp
module Modelcheck = Nvml_modelcheck.Modelcheck
module Pool = Nvml_exec.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- episode helper ------------------------------------------------------ *)

type episode = {
  value : int64;
  keys : int64 list;
  per_core : (int * int) list; (* (cycles, instrs) per core *)
  sched : Multicore.stats;
  issued : int;
  elided : int;
  pending : int;
}

let run_episode ?(sched_seed = 7) ?(timing = true) ~cores ~ops_per_core () =
  let cfg = { Runtime.Config.default with timing } in
  let rt = Runtime.create ~cfg ~mode:Runtime.Hw () in
  let pool = Runtime.create_pool rt ~name:"conc" ~size:(1 lsl 22) in
  let s = Conc_workload.setup ~sched_seed ~cores ~ops_per_core rt ~pool in
  Conc_workload.run s;
  let mc = Cluster.machine s.Conc_workload.cluster in
  Array.iter
    (fun cpu ->
      check_int "attribution = cycles"
        (Cpu.attribution_total (Cpu.attribution cpu))
        (Cpu.cycles cpu))
    (Multicore.cores mc);
  let fc = Conc_counter.flit s.Conc_workload.counter in
  let fl = Conc_list.flit s.Conc_workload.list in
  {
    value =
      Conc_counter.read
        (Conc_counter.handle s.Conc_workload.counter rt ~core:0);
    keys = List.sort compare (Conc_list.recovered_keys rt s.Conc_workload.list);
    per_core =
      Array.to_list
        (Array.map
           (fun cpu -> (Cpu.cycles cpu, (Cpu.snapshot cpu).Cpu.instrs))
           (Multicore.cores mc));
    sched = Multicore.stats mc;
    issued = Flit.issued fc + Flit.issued fl;
    elided = Flit.elided fc + Flit.elided fl;
    pending = Flit.pending fc + Flit.pending fl;
  }

(* --- scheduler determinism ---------------------------------------------- *)

let test_determinism () =
  let a = run_episode ~cores:3 ~ops_per_core:10 () in
  let b = run_episode ~cores:3 ~ops_per_core:10 () in
  check_bool "same seed, same episode" true (a = b);
  let c = run_episode ~sched_seed:99 ~cores:3 ~ops_per_core:10 () in
  check_bool "different seed still agrees functionally" true
    (a.value = c.value && a.keys = c.keys);
  check_bool "different seed schedules differently" true (a.sched <> c.sched)

let test_fast_mode_agrees () =
  let a = run_episode ~timing:true ~cores:2 ~ops_per_core:8 () in
  let b = run_episode ~timing:false ~cores:2 ~ops_per_core:8 () in
  check_bool "functional outputs equal across speeds" true
    (a.value = b.value && a.keys = b.keys)

(* --- per-core atomicity --------------------------------------------------- *)

(* A 2-core run on the functional core: core 0 narrates 5 plain
   µ-events and then a block of 20, core 1 narrates 60; each core logs
   (core, in block) after every µ-event.  Returns how many entries the
   block logged and how many log positions its entries span. *)
let block_span ~atomic =
  let cfg = { Runtime.Config.default with timing = false } in
  let cluster =
    Cluster.create ~seed:3 ~cores:2 (Runtime.create ~cfg ~mode:Runtime.Hw ())
  in
  let log = ref [] in
  let step rt core ~block =
    Runtime.instr rt 1;
    log := (core, block) :: !log
  in
  let body core =
    let rt = Cluster.rt cluster core in
    if core = 0 then begin
      for _ = 1 to 5 do step rt 0 ~block:false done;
      let block () = for _ = 1 to 20 do step rt 0 ~block:true done in
      if atomic then Runtime.atomically rt block else block ()
    end
    else for _ = 1 to 60 do step rt 1 ~block:false done
  in
  Cluster.run cluster [| body; body |];
  let at =
    List.concat
      (List.mapi (fun i (_, b) -> if b then [ i ] else []) (List.rev !log))
  in
  (List.length at, List.nth at (List.length at - 1) - List.hd at + 1)

let test_atomically_contiguous () =
  let n, span = block_span ~atomic:true in
  check_int "block logged every µ-event" 20 n;
  check_int "atomic block is contiguous in the log" 20 span;
  let n, span = block_span ~atomic:false in
  check_int "plain block logged every µ-event" 20 n;
  check_bool "without atomically core 1 interleaves" true (span > 20)

(* --- the contended 2-core run: coherence and FliT ----------------------- *)

let test_contended_metrics () =
  let e = run_episode ~cores:2 ~ops_per_core:24 () in
  check_bool "counter sums every increment" true (e.value = 48L);
  check_int "list published every insert" 48 (List.length e.keys);
  check_bool "scheduler saw contention" true
    (e.sched.Multicore.contended_steps > 0);
  check_bool "scheduler switched cores" true (e.sched.Multicore.switches > 0);
  check_bool "coherence invalidations observed" true
    (e.sched.Multicore.invalidations > 0);
  check_bool "FliT elided flushes on quiescent objects" true (e.elided > 0);
  check_bool "FliT issued flushes under concurrent writers" true
    (e.issued > 0);
  check_int "FliT quiescent at the end" 0 e.pending

(* --- single core is byte-identical to the pre-multi-core machine -------- *)

let snapshot_fingerprint (s : Cpu.snapshot) =
  ( s.Cpu.cycles,
    s.Cpu.instrs,
    s.Cpu.loads,
    s.Cpu.stores,
    s.Cpu.storeps,
    s.Cpu.branches,
    s.Cpu.branch_mispredicts,
    s.Cpu.polb_misses,
    s.Cpu.valb_misses,
    (s.Cpu.pow_walks, s.Cpu.vaw_walks, s.Cpu.dram_accesses, s.Cpu.nvm_accesses)
  )

let run_minic ~cluster prog =
  let rt = Runtime.create ~mode:Runtime.Hw () in
  let heap =
    Runtime.Pool_region (Runtime.create_pool rt ~name:"heap" ~size:(1 lsl 22))
  in
  let out = ref [] in
  let body _ = out := (Interp.run rt ~heap prog ~args:[]).Interp.output in
  if cluster then Cluster.run (Cluster.create ~cores:1 rt) [| body |]
  else body 0;
  (!out, snapshot_fingerprint (Runtime.snapshot rt))

let test_single_core_minic_corpus () =
  List.iter
    (fun (name, prog) ->
      let direct = run_minic ~cluster:false prog in
      let clustered = run_minic ~cluster:true prog in
      check_bool (name ^ ": cores 1 == pre-refactor machine") true
        (direct = clustered))
    Corpus.all

let run_kv ~cluster =
  let (module M : Intf.ORDERED_MAP) = Registry.find_map "RB" in
  let rt = Runtime.create ~mode:Runtime.Hw () in
  let pool = Runtime.create_pool rt ~name:"kv" ~size:(1 lsl 22) in
  let body _ =
    let m = M.create rt (Runtime.Pool_region pool) in
    let spec =
      { Workload.paper_default with record_count = 64; operation_count = 400 }
    in
    for i = 0 to 63 do
      Workload.load_record ~insert:(M.insert m) i
    done;
    Workload.iter_idx_ops spec
      (Workload.apply ~find:(M.find m) ~insert:(M.insert m))
  in
  if cluster then Cluster.run (Cluster.create ~cores:1 rt) [| body |]
  else body 0;
  snapshot_fingerprint (Runtime.snapshot rt)

let test_single_core_kv () =
  check_bool "kv run: cores 1 == pre-refactor machine" true
    (run_kv ~cluster:false = run_kv ~cluster:true)

(* --- validation ---------------------------------------------------------- *)

let test_validation () =
  let cfg = { Runtime.Config.default with timing = false } in
  let rt = Runtime.create ~cfg ~mode:Runtime.Hw () in
  Alcotest.check_raises "cores 0" (Invalid_argument "Cluster.create: cores must be >= 1")
    (fun () -> ignore (Cluster.create ~cores:0 rt));
  check_int "atomically outside run is transparent" 42
    (Runtime.atomically rt (fun () -> 42));
  let pool = Runtime.create_pool rt ~name:"v" ~size:(1 lsl 20) in
  let region = Runtime.Pool_region pool in
  Alcotest.check_raises "counter cells 0"
    (Invalid_argument "Conc_counter.create: cells must be >= 1") (fun () ->
      ignore (Conc_counter.create rt region ~cells:0));
  let l = Conc_list.create rt region ~capacity:4 in
  Alcotest.check_raises "list slot out of range"
    (Invalid_argument "Conc_list.insert: slot out of range") (fun () ->
      Conc_list.insert (Conc_list.handle l rt) ~slot:4 ~key:1L)

(* --- schedule enumeration through the model checker ---------------------- *)

let test_modelcheck_conc () =
  let report =
    Modelcheck.run ~components:[ "conc" ] ~ops:192 ~seed:11 ()
  in
  check_int "no violations" 0 report.Modelcheck.violations

let () =
  Alcotest.run "conc"
    [
      ( "scheduler",
        [
          Alcotest.test_case "seeded determinism" `Quick test_determinism;
          Alcotest.test_case "fast mode agrees" `Quick test_fast_mode_agrees;
          Alcotest.test_case "contended metrics" `Quick test_contended_metrics;
          Alcotest.test_case "atomically is contiguous" `Quick
            test_atomically_contiguous;
        ] );
      ( "single-core identity",
        [
          Alcotest.test_case "minic corpus" `Slow test_single_core_minic_corpus;
          Alcotest.test_case "kv run" `Quick test_single_core_kv;
        ] );
      ( "validation",
        [ Alcotest.test_case "degenerate parameters" `Quick test_validation ] );
      ( "durability",
        [ Alcotest.test_case "modelcheck conc" `Slow test_modelcheck_conc ] );
    ]
