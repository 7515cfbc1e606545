(* Fault-injection engine tests: exhaustive crash-point sweeps over a
   small transaction stream, the KV harness and the multi-core
   structures, torn-write round-trips, crash-point selection,
   parallel-sweep determinism, and the checker self-test (a
   deliberately broken recovery must be caught). *)

module Fi = Nvml_simmem.Fi
module Txn = Nvml_runtime.Txn
module Persist = Nvml_runtime.Persist
module F = Nvml_faultinject.Faultinject
module Pool = Nvml_exec.Pool

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let no_violations (r : F.report) =
  Alcotest.(check (list (pair int string))) "no violations" [] r.violations

(* --- torn-word mixing --------------------------------------------------- *)

let test_torn_word () =
  let old_value = 0x1122334455667788L and new_value = 0x99aabbccddeeff00L in
  Alcotest.(check int64)
    "all old" old_value
    (Fi.torn_word ~keep_old_bytes:0xFF ~old_value ~new_value);
  Alcotest.(check int64)
    "all new" new_value
    (Fi.torn_word ~keep_old_bytes:0x00 ~old_value ~new_value);
  Alcotest.(check int64)
    "low half old" 0x99aabbcc55667788L
    (Fi.torn_word ~keep_old_bytes:0x0F ~old_value ~new_value);
  Alcotest.(check int64)
    "one lane" 0x99aabbccddee7700L
    (Fi.torn_word ~keep_old_bytes:0x02 ~old_value ~new_value)

(* --- exhaustive sweep over a 3-op transaction stream -------------------- *)

let test_counter_sweep () =
  let w = F.counter_workload ~ops:3 () in
  let r = F.run ~spec:F.default_spec w in
  check "one crash point per event" r.F.events (List.length r.F.outcomes);
  check_bool "events counted" true (r.F.events > 0);
  check_bool "log appends seen" true (r.F.tally.F.log_appends > 0);
  check "every point recovered" (List.length r.F.outcomes)
    (r.F.clean + r.F.rolled_back);
  check_bool "some crash points interrupt live transactions" true
    (List.exists
       (fun (o : F.outcome) ->
         match o.F.recovery with Txn.Rolled_back n -> n > 0 | _ -> false)
       r.F.outcomes);
  no_violations r

(* Torn variant: the interrupted data word is replaced by a seeded
   byte-mix of old and new; the undo log must heal every one. *)
let test_counter_sweep_torn () =
  let w = F.counter_workload ~ops:3 () in
  let r = F.run ~spec:{ F.default_spec with torn = true; seed = 3 } w in
  check_bool "torn words were injected" true (r.F.torn_injected > 0);
  no_violations r

(* Every workload under eager and epoch:4: one crash point per event,
   the per-kind tally accounts for every event, no violations. *)
let test_every_workload () =
  List.iter
    (fun persist ->
      List.iter
        (fun w ->
          let r = F.run ~persist w in
          let t = r.F.tally in
          let tag = r.F.workload ^ "/" ^ r.F.persist in
          check (tag ^ ": tally sums to the event count") r.F.events
            (t.F.pm_stores + t.F.storeps + t.F.log_appends + t.F.meta_writes
           + t.F.flushes + t.F.fences);
          check (tag ^ ": one crash point per event") r.F.events
            (List.length r.F.outcomes);
          no_violations r)
        [
          F.counter_workload ~ops:3 ();
          F.kv_workload ~structure:"RB" ~records:6 ~ops:12 ();
          F.conc_workload ~cores:2 ~ops_per_core:4 ();
        ])
    [ Persist.Eager; Persist.Epoch { interval = 4 } ]

(* The multi-core workload reports through the shared outcome: nothing
   to roll back, nothing lost, no tear, and [op] counts the operations
   completed when power failed. *)
let test_conc_results () =
  let r = F.run (F.conc_workload ~cores:2 ~ops_per_core:3 ()) in
  check "ops = cores * ops_per_core" 6 r.F.ops;
  check "every point recovered clean" (List.length r.F.outcomes) r.F.clean;
  check "nothing lost" 0 r.F.suffix_lost;
  check "nothing torn" 0 r.F.torn_injected;
  let ops = List.map (fun (o : F.outcome) -> o.F.op) r.F.outcomes in
  check "nothing completed at the first event" 0 (List.hd ops);
  check_bool "completed ops never decrease" true
    (List.sort compare ops = ops);
  check_bool "completed ops stay within the workload" true
    (List.for_all (fun n -> n >= 0 && n <= r.F.ops) ops)

(* --- crash-point selection ------------------------------------------------ *)

(* The conc workload selects points through the shared selection: [at]
   gives exactly the named point, and an out-of-range index fails with
   the valid range. *)
let test_conc_at () =
  let w = F.conc_workload ~cores:2 ~ops_per_core:3 () in
  let events =
    (F.run ~spec:{ F.default_spec with max_points = Some 0 } w).F.events
  in
  let k = events / 2 in
  let r = F.run ~spec:{ F.default_spec with at = [ k ] } w in
  check "exactly one outcome" 1 (List.length r.F.outcomes);
  check "at point k" k (List.hd r.F.outcomes).F.point;
  Alcotest.check_raises "out-of-range at names the range"
    (Invalid_argument
       (Printf.sprintf
          "faultinject: crash point %d is out of range (this workload has \
           events 0..%d)"
          events (events - 1)))
    (fun () -> ignore (F.run ~spec:{ F.default_spec with at = [ events ] } w))

(* --- checker self-test -------------------------------------------------- *)

(* With recovery disabled the machine reboots into whatever the crash
   left behind; the checker must notice at some crash point. *)
let test_broken_recovery_is_caught () =
  let w = F.counter_workload ~ops:3 () in
  let r = F.run ~spec:{ F.default_spec with break_recovery = true } w in
  check_bool "the checker catches a disabled recovery" true
    (r.F.violations <> [])

(* --- the KV harness ----------------------------------------------------- *)

(* Acceptance sweep: every persistence event of a 100-op YCSB stream
   against the RB tree, zero violations. *)
let test_kv_full_sweep () =
  let w = F.kv_workload ~structure:"RB" ~records:15 ~ops:100 () in
  let pool = Pool.create () in
  let r =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> F.run ~par:(Pool.run pool) ~spec:F.default_spec w)
  in
  check_bool "a real event stream" true (r.F.events > 100);
  check_bool "storeP retirements seen" true (r.F.tally.F.storeps > 0);
  check_bool "allocator metadata writes seen" true (r.F.tally.F.meta_writes > 0);
  check "one crash point per event" r.F.events (List.length r.F.outcomes);
  check "every point recovered" (List.length r.F.outcomes)
    (r.F.clean + r.F.rolled_back);
  no_violations r

let test_kv_torn_sweep () =
  let w = F.kv_workload ~structure:"AVL" ~records:10 ~ops:40 () in
  let r = F.run ~spec:{ F.default_spec with every_n = 5; torn = true } w in
  check_bool "torn words were injected" true (r.F.torn_injected > 0);
  no_violations r

(* --- parallel-sweep determinism ----------------------------------------- *)

(* Each workload's sweep is identical at --jobs 4 and --jobs 1. *)
let test_jobs_determinism () =
  let torn = { F.default_spec with every_n = 4; torn = true; seed = 11 } in
  let pool = Pool.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun (w, spec) ->
          let seq = F.run ~spec w in
          let par = F.run ~par:(Pool.run pool) ~spec w in
          check
            (seq.F.workload ^ ": same point count")
            (List.length seq.F.outcomes)
            (List.length par.F.outcomes);
          check_bool
            (seq.F.workload ^ ": --jobs 4 outcomes identical to --jobs 1")
            true
            (seq.F.outcomes = par.F.outcomes);
          check_bool (seq.F.workload ^ ": identical reports") true (seq = par))
        [
          (F.kv_workload ~structure:"Skip" ~records:6 ~ops:15 (), torn);
          (F.counter_workload ~ops:3 (), torn);
          (F.conc_workload ~cores:2 ~ops_per_core:4 (), F.default_spec);
        ])

let () =
  Alcotest.run "faultinject"
    [
      ( "torn",
        [
          Alcotest.test_case "torn_word mixing" `Quick test_torn_word;
          Alcotest.test_case "counter sweep, torn" `Quick
            test_counter_sweep_torn;
          Alcotest.test_case "kv sweep, torn" `Quick test_kv_torn_sweep;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "counter, every event" `Quick test_counter_sweep;
          Alcotest.test_case "kv RB, every event of 100 ops" `Slow
            test_kv_full_sweep;
          Alcotest.test_case "every workload, eager and epoch:4" `Quick
            test_every_workload;
          Alcotest.test_case "conc results" `Quick test_conc_results;
        ] );
      ( "selection",
        [ Alcotest.test_case "conc --at, in and out of range" `Quick
            test_conc_at ] );
      ( "checker",
        [
          Alcotest.test_case "broken recovery is caught" `Quick
            test_broken_recovery_is_caught;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs 4 == jobs 1" `Quick test_jobs_determinism;
        ] );
    ]
