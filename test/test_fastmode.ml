(* Fast-mode vs cycle-mode equivalence: the two-speed split (DESIGN.md
   §12) promises that fast functional simulation changes wall-clock
   only.  Every functional output — program results, translation
   counters, event counts, crash-point enumeration, recovery verdicts,
   fuzz verdicts, scrub reports — must be identical in both modes, and
   fast mode must keep the [--jobs N == --jobs 1] determinism
   contract. *)

module Runtime = Nvml_runtime.Runtime
module Cpu = Nvml_arch.Cpu
module Xlate = Nvml_core.Xlate
module Interp = Nvml_minic.Interp
module Corpus = Nvml_minic.Corpus
module Pool = Nvml_exec.Pool
module Modelcheck = Nvml_modelcheck.Modelcheck
module Faultinject = Nvml_faultinject.Faultinject
module Harness = Nvml_kvstore.Harness
module Mediacheck = Nvml_pool.Mediacheck
module Crc = Nvml_media.Crc

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- corpus equivalence ------------------------------------------------ *)

(* The functional fingerprint of a run: everything except timing. *)
type fingerprint = {
  result : int64;
  output : int64 list;
  ra2va : int;
  va2ra : int;
  dynamic_checks : int;
  volatile_escapes : int;
  instrs : int;
  loads : int;
  stores : int;
  storeps : int;
  branches : int;
  mem_accesses : int;
  dram_accesses : int;
  nvm_accesses : int;
}

let run_program ~timing ~mode prog =
  let cfg = { Runtime.Config.default with timing } in
  let rt, outcome = Interp.run_fresh ~cfg ~mode ~persistent:true prog in
  let c = Runtime.counters rt in
  let s = Runtime.snapshot rt in
  let fp =
    {
      result = outcome.Interp.result;
      output = outcome.Interp.output;
      ra2va = c.Xlate.ra2va;
      va2ra = c.Xlate.va2ra;
      dynamic_checks = c.Xlate.dynamic_checks;
      volatile_escapes = c.Xlate.volatile_escapes;
      instrs = s.Cpu.instrs;
      loads = s.Cpu.loads;
      stores = s.Cpu.stores;
      storeps = s.Cpu.storeps;
      branches = s.Cpu.branches;
      mem_accesses = s.Cpu.mem_accesses;
      dram_accesses = s.Cpu.dram_accesses;
      nvm_accesses = s.Cpu.nvm_accesses;
    }
  in
  (fp, s)

let test_corpus_equivalence () =
  List.iter
    (fun mode ->
      List.iter
        (fun (name, prog) ->
          let tag = Fmt.str "%s/%s" (Runtime.mode_name mode) name in
          let cycle, _ = run_program ~timing:true ~mode prog in
          let fast, fast_snap = run_program ~timing:false ~mode prog in
          check_bool (tag ^ ": functional outputs identical") true
            (cycle = fast);
          check_int (tag ^ ": fast cycles = instrs") fast_snap.Cpu.instrs
            fast_snap.Cpu.cycles;
          check_int (tag ^ ": fast storeP stalls = 0") 0
            fast_snap.Cpu.storep_stall_cycles)
        Corpus.all)
    Runtime.[ Volatile; Sw; Hw; Explicit ]

(* --- fault injection --------------------------------------------------- *)

let test_faultinject_equivalence () =
  let spec =
    { Faultinject.default_spec with Faultinject.torn = true; seed = 7 }
  in
  List.iter
    (fun w ->
      let fast = Faultinject.run ~spec ~timing:false w in
      let cycle = Faultinject.run ~spec ~timing:true w in
      check_bool
        (fast.Faultinject.workload ^ ": report identical across modes")
        true (fast = cycle);
      check_bool
        (fast.Faultinject.workload ^ ": crash points enumerated")
        true
        (fast.Faultinject.events > 0 && fast.Faultinject.outcomes <> []))
    [
      Faultinject.counter_workload ~ops:2 ();
      Faultinject.kv_workload ~structure:"RB" ~records:6 ~ops:10 ();
      Faultinject.conc_workload ~cores:2 ~ops_per_core:3 ();
    ]

(* --- fuzz verdicts ----------------------------------------------------- *)

let test_fuzz_equivalence () =
  let components = [ "pmop"; "freelist"; "structures:RB"; "semantics" ] in
  let fast =
    Modelcheck.run ~timing:false ~components ~ops:128 ~seed:2 ()
  in
  let cycle =
    Modelcheck.run ~timing:true ~components ~ops:128 ~seed:2 ()
  in
  check_bool "verdicts identical across modes" true (fast = cycle);
  check_int "no violations" 0 fast.Modelcheck.violations

(* --- the benchmark's timing override ------------------------------------ *)

(* Inside [Runtime.with_default_timing] every machine runs at the speed
   it names, whatever its configuration; outside it the configuration
   decides. *)
let test_timing_override () =
  let spec =
    {
      Nvml_ycsb.Workload.paper_default with
      record_count = 200;
      operation_count = 300;
    }
  in
  let run ?cfg () =
    (Harness.run_benchmark "RB" ~mode:Runtime.Hw ?cfg spec).Harness.run
  in
  let functional = { Runtime.Config.default with timing = false } in
  let s = Runtime.with_default_timing false (fun () -> run ()) in
  check_int "override false, default config: cycles = instrs" s.Cpu.instrs
    s.Cpu.cycles;
  let s = Runtime.with_default_timing true (fun () -> run ~cfg:functional ()) in
  check_bool "override true, functional config: cycles > instrs" true
    (s.Cpu.cycles > s.Cpu.instrs);
  let s = run () in
  check_bool "default config: cycles > instrs" true
    (s.Cpu.cycles > s.Cpu.instrs);
  let s = run ~cfg:functional () in
  check_int "functional config: cycles = instrs" s.Cpu.instrs s.Cpu.cycles

(* --- scrub reports ----------------------------------------------------- *)

let test_scrub_stable () =
  (* The scrub engine is purely functional (no simulated core): the
     same cell config must reproduce the same report, and the report
     must match the injector's ground truth. *)
  let cfg =
    {
      Mediacheck.pools = 2;
      records = 12;
      rate = 1e-3;
      kinds = [];
      seed = 5;
      repair = true;
    }
  in
  let a = Mediacheck.run_cell cfg in
  let b = Mediacheck.run_cell cfg in
  check_bool "cell replays bit-identically" true (a = b);
  check_bool "no mispredictions" true (a.Mediacheck.mispredictions = [])

(* --- determinism under --jobs in fast mode ----------------------------- *)

let test_fast_jobs_deterministic () =
  let components = [ "cache"; "valb"; "storep"; "pmop"; "structures:RB" ] in
  (* timing defaults to false: this is the fast path. *)
  let sequential = Modelcheck.run ~components ~ops:200 ~seed:3 () in
  let pool = Pool.create ~jobs:4 () in
  let parallel =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Modelcheck.run ~pool ~components ~ops:200 ~seed:3 ())
  in
  check_bool "jobs 4 == jobs 1 (reports)" true (sequential = parallel);
  check_str "jobs 4 == jobs 1 (rendered bytes)"
    (Fmt.str "%a" Modelcheck.pp_report sequential)
    (Fmt.str "%a" Modelcheck.pp_report parallel)

(* --- CRC table rework -------------------------------------------------- *)

(* Bit-for-bit reference in Int32 arithmetic (the pre-rework
   implementation): the plain-int table must agree on every value,
   because CRCs are stored in sealed pool metadata. *)
let ref_crc32_words words =
  let table =
    let t = Array.make 256 0l in
    for n = 0 to 255 do
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      t.(n) <- !c
    done;
    t
  in
  let step crc byte =
    Int32.logxor
      table.(Int32.to_int (Int32.logand (Int32.logxor crc (Int32.of_int byte)) 0xFFl))
      (Int32.shift_right_logical crc 8)
  in
  let crc_word crc ~bytes w =
    let crc = ref crc in
    for i = 0 to bytes - 1 do
      let b = Int64.to_int (Int64.shift_right_logical w (8 * i)) land 0xFF in
      crc := step !crc b
    done;
    !crc
  in
  let finish crc = Int32.to_int (Int32.logxor crc 0xFFFFFFFFl) land 0xFFFFFFFF in
  ( finish (List.fold_left (fun c w -> crc_word c ~bytes:8 w) 0xFFFFFFFFl words),
    fun w ->
      let c = finish (crc_word 0xFFFFFFFFl ~bytes:6 w) in
      (c lxor (c lsr 16)) land 0xFFFF )

let test_crc_matches_reference () =
  let rng = Random.State.make [| 0x51ab |] in
  for _ = 1 to 200 do
    let words =
      List.init
        (1 + Random.State.int rng 12)
        (fun _ -> Random.State.int64 rng Int64.max_int)
    in
    let expect32, ref16 = ref_crc32_words words in
    check_int "crc32_words matches Int32 reference" expect32
      (Crc.crc32_words words);
    let w = List.hd words in
    check_int "crc16_low48 matches Int32 reference" (ref16 w)
      (Crc.crc16_low48 w)
  done;
  (* Known vector: CRC-32("123456789") = 0xCBF43926.  The bytes packed
     little-endian into words must reproduce it. *)
  let packed =
    [ 0x3837363534333231L (* "12345678" *); 0x39L (* "9" *) ]
  in
  let crc =
    (* crc32_words consumes whole 8-byte words, so fold the 9-byte
       vector manually through the public word API: full word + the
       final byte via crc16's underlying path is not exposed.  Instead
       check the full-word prefix against the reference impl, which is
       itself anchored by construction. *)
    Crc.crc32_words packed
  in
  let expect, _ = ref_crc32_words packed in
  check_int "known-vector words agree" expect crc

let () =
  Alcotest.run "fastmode"
    [
      ( "equivalence",
        [
          Alcotest.test_case "corpus functional outputs" `Quick
            test_corpus_equivalence;
          Alcotest.test_case "faultinject reports" `Quick
            test_faultinject_equivalence;
          Alcotest.test_case "fuzz verdicts" `Quick test_fuzz_equivalence;
          Alcotest.test_case "scrub reports stable" `Quick test_scrub_stable;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fast mode jobs 4 == jobs 1" `Quick
            test_fast_jobs_deterministic;
        ] );
      ( "override",
        [
          Alcotest.test_case "benchmark timing override" `Quick
            test_timing_override;
        ] );
      ( "crc",
        [
          Alcotest.test_case "int table matches Int32 reference" `Quick
            test_crc_matches_reference;
        ] );
    ]
