(* Fault-injection engine tests: exhaustive crash-point sweeps over a
   small transaction stream, the KV harness and the multi-core
   structures, torn-write round-trips, crash-point selection,
   parallel-sweep determinism, and the checker self-test (a
   deliberately broken recovery must be caught). *)

module Fi = Nvml_simmem.Fi
module Layout = Nvml_simmem.Layout
module Mem = Nvml_simmem.Mem
module Physmem = Nvml_simmem.Physmem
module Pmop = Nvml_pool.Pmop
module Runtime = Nvml_runtime.Runtime
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

(* Every workload under each model: one crash point per event, the
   per-kind tally accounts for every event, no violations. *)
let test_every_workload models () =
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
    models

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

(* --- crash images --------------------------------------------------------- *)

(* The words of the sweep pool's frames that hold storage on [rt], read
   through [read]. *)
let pool_words rt read =
  let pm = Runtime.pmop rt and phys = Mem.phys (Runtime.mem rt) in
  List.filter_map
    (fun f ->
      if Physmem.frame_exists phys f then
        Some
          (f, Array.init Layout.words_per_page (fun w -> read ~frame:f ~word_index:w))
      else None)
    (Pmop.pool_frames pm ~pool:(Pmop.pool_id_of_name pm "fi"))

exception Stopped of (int * int64 array) list * string option

(* The reference image: a machine that runs the workload and stops in
   its fi hook at [point], before the event lands.  Power fails with
   the media as it stands, a torn data store written into it; the
   reboot reverts every buffered word to its durable value; a torn
   flush word lands over that.  Also returns the kind of the event
   when it tore a word. *)
let stopped_image ~persist ~spec w point =
  match
    F.drive ~persist ~spec w (fun rt i ev ~tear ->
        if i = point then begin
          let phys = Mem.phys (Runtime.mem rt) and p = Runtime.persist rt in
          let torn = tear () in
          (match (ev, torn) with
          | Fi.Pm_store _, Some (frame, word_index, v) ->
              Physmem.poke phys ~frame ~word_index v
          | _ -> ());
          let words = pool_words rt (Persist.durable_value p) in
          (match (ev, torn) with
          | Fi.Flush_line _, Some (frame, word_index, v) ->
              (List.assoc frame words).(word_index) <- v
          | _ -> ());
          raise (Stopped (words, Option.map (fun _ -> Fi.kind_name ev) torn))
        end)
  with
  | () -> Alcotest.failf "point %d is past the last event" point
  | exception Stopped (words, torn) -> (words, torn)

(* At every 5th event of each workload, model and tear setting, the
   image a crash pass installs holds exactly the stopped machine's
   words, the torn one included (a frame without storage reads 0). *)
let test_crash_images () =
  let flush_tears = ref 0 and store_tears = ref 0 in
  List.iter
    (fun persist ->
      List.iter
        (fun (w, torn) ->
          let spec = { F.default_spec with every_n = 5; torn; seed = 3 } in
          List.iter
            (fun (point, got_torn, rt) ->
              let tag =
                Printf.sprintf "%s torn=%b point %d" (Persist.model_name persist)
                  torn point
              in
              let want, tore = stopped_image ~persist ~spec w point in
              let got =
                pool_words rt (Physmem.peek (Mem.phys (Runtime.mem rt)))
              in
              check_bool (tag ^ ": torn") (Option.is_some tore) got_torn;
              if not (Persist.is_eager persist) then
                Option.iter
                  (fun kind ->
                    incr (if kind = "flush" then flush_tears else store_tears))
                  tore;
              let word img f i =
                match List.assoc_opt f img with Some a -> a.(i) | None -> 0L
              in
              List.iter
                (fun f ->
                  for i = 0 to Layout.words_per_page - 1 do
                    if word got f i <> word want f i then
                      Alcotest.failf
                        "%s: frame %d word %d installed %Lx, stopped %Lx" tag f
                        i (word got f i) (word want f i)
                  done)
                (List.sort_uniq compare (List.map fst (want @ got))))
            (F.crash_images ~persist ~spec w))
        [
          (F.counter_workload ~ops:3 (), false);
          (F.counter_workload ~ops:3 (), true);
          (F.kv_workload ~structure:"RB" ~records:6 ~ops:12 (), false);
          (F.kv_workload ~structure:"RB" ~records:6 ~ops:12 (), true);
          (F.conc_workload ~cores:2 ~ops_per_core:4 (), false);
        ])
    [ Persist.Eager; Persist.Epoch { interval = 4 }; Persist.Lazy_on_detach ];
  check_bool "relaxed sweeps tore flushed lines" true (!flush_tears > 0);
  check_bool "relaxed sweeps tore data stores" true (!store_tears > 0)

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
            (test_every_workload [ Persist.Eager; Persist.Epoch { interval = 4 } ]);
          Alcotest.test_case "conc results" `Quick test_conc_results;
          Alcotest.test_case "every workload, lazy" `Quick
            (test_every_workload [ Persist.Lazy_on_detach ]);
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
      ( "image",
        [
          Alcotest.test_case "installed == stopped machine" `Quick
            test_crash_images;
        ] );
    ]
