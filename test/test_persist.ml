(* Persistency-model engine tests: the buffer itself on a bare machine
   (drain order, write-through, interrupted drains, re-dirtying, the
   eager no-op, model parsing), the epoch engine's drain accounting
   through the KV harness, exhaustive contract-verified crash sweeps
   under every retention model (single-core RB and 2-core concurrent),
   and the eager pin — `~persist:Eager` must be indistinguishable from
   not passing a model at all. *)

module W = Nvml_ycsb.Workload
module Cpu = Nvml_arch.Cpu
module Runtime = Nvml_runtime.Runtime
module Persist = Nvml_runtime.Persist
module Harness = Nvml_kvstore.Harness
module F = Nvml_faultinject.Faultinject
module Pool = Nvml_exec.Pool
module Physmem = Nvml_simmem.Physmem
module Layout = Nvml_simmem.Layout
module Fi = Nvml_simmem.Fi
module Mem = Nvml_simmem.Mem
module Config = Nvml_arch.Config

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let no_violations name (r : F.report) =
  Alcotest.(check (list (pair int string))) name [] r.F.violations

(* A small write-heavy spec: the drain engine only has work to do when
   operations dirty persistent lines. *)
let small =
  {
    (W.scale W.paper_default 50) with
    W.read_proportion = 0.5;
    update_proportion = 0.45;
    insert_proportion = 0.05;
  }

(* --- the buffer on a bare machine --------------------------------------- *)

(* A relaxed engine over two fresh NVM frames, a cycle-mode core to
   drain on, and a fault-injection hook that records every flushed line
   as (frame, line) and cuts power at flush [cut] (0-based) if set. *)
type bare = {
  pm : Physmem.t;
  frames : int array;
  p : Persist.t;
  cpu : Cpu.t;
  flushed : (int * int) list ref; (* in announcement order *)
  cut : int option ref;
}

exception Power_cut

let bare ?(model = Persist.Epoch { interval = 8 }) () =
  let pm = Physmem.create () in
  let frames = Array.init 2 (fun _ -> Physmem.alloc_frame pm Layout.Nvm) in
  let flushed = ref [] and cut = ref None in
  Physmem.set_fi_hook pm
    (Some
       (function
       | Fi.Flush_line { frame; line } ->
           if !cut = Some (List.length !flushed) then raise Power_cut;
           flushed := !flushed @ [ (frame, line) ]
       | _ -> ()));
  let p = Persist.create model pm in
  { pm; frames; p; cpu = Cpu.create Config.default (Mem.create ()); flushed; cut }

let store b ~frame ~line ~word v =
  Physmem.write_word b.pm ~frame:b.frames.(frame) ~word_index:((line * 8) + word) v

let drain b = Persist.drain b.p ~cpu:b.cpu ~cfg:Config.default

let peek b ~frame ~line ~word =
  Physmem.peek b.pm ~frame:b.frames.(frame) ~word_index:((line * 8) + word)

let test_drain_order () =
  let b = bare () in
  (* dirty (frame, line) pairs in a scrambled order, some twice *)
  let dirty = [ (1, 5); (0, 63); (1, 0); (0, 2); (0, 17); (1, 5); (0, 2) ] in
  List.iteri (fun i (frame, line) -> store b ~frame ~line ~word:(i mod 8) 1L) dirty;
  drain b;
  let expected =
    List.sort_uniq compare dirty
    |> List.map (fun (frame, line) -> (b.frames.(frame), line))
  in
  Alcotest.(check (list (pair int int))) "ascending, one flush per line" expected
    !(b.flushed);
  check_int "flushes" (List.length expected) (Persist.flushes b.p);
  check_int "one fence" 1 (Persist.fences b.p);
  check_int "nothing left" 0 (Persist.pending_words b.p)

let test_write_through_unbuffers () =
  let b = bare () in
  store b ~frame:0 ~line:3 ~word:1 7L;
  store b ~frame:0 ~line:9 ~word:0 8L;
  check_int "two buffered" 2 (Persist.pending_words b.p);
  (* the write-through store makes line 3's only dirty word durable *)
  Persist.with_eager b.p (fun () -> store b ~frame:0 ~line:3 ~word:1 9L);
  check_int "one buffered" 1 (Persist.pending_words b.p);
  Alcotest.(check (list (pair int int64)))
    "line 3 has no buffered word" []
    (Persist.buffered_in_line b.p ~frame:b.frames.(0) ~line:3);
  Alcotest.(check int64) "write-through value is durable" 9L
    (Persist.durable_value b.p ~frame:b.frames.(0) ~word_index:25);
  drain b;
  Alcotest.(check (list (pair int int)))
    "only line 9 flushes" [ (b.frames.(0), 9) ] !(b.flushed);
  check_int "stores_buffered counts the buffered stores" 2
    (Persist.stores_buffered b.p)

let test_interrupted_drain_then_crash () =
  let b = bare () in
  (* four lines, two words each, over a zeroed media *)
  let lines = [ 4; 11; 20; 40 ] in
  List.iter
    (fun line ->
      store b ~frame:1 ~line ~word:0 (Int64.of_int (100 + line));
      store b ~frame:1 ~line ~word:6 (Int64.of_int (200 + line)))
    lines;
  b.cut := Some 2;
  (match drain b with
  | () -> Alcotest.fail "the drain should have been cut"
  | exception Power_cut -> ());
  check_int "lines 0..1 flushed" 2 (Persist.flushes b.p);
  check_int "no fence" 0 (Persist.fences b.p);
  check_int "lines 2..3 still buffered" 4 (Persist.pending_words b.p);
  Persist.crash b.p;
  check_int "crash dropped the cut lines' words" 4 (Persist.crash_dropped b.p);
  List.iteri
    (fun i line ->
      let survived = i < 2 in
      List.iter
        (fun (word, v) ->
          Alcotest.(check int64)
            (Fmt.str "line %d word %d" line word)
            (if survived then Int64.of_int (v + line) else 0L)
            (peek b ~frame:1 ~line ~word))
        [ (0, 100); (6, 200) ])
    lines;
  check_int "buffer empty after crash" 0 (Persist.pending_words b.p)

let test_redirty_counts_again () =
  let b = bare () in
  store b ~frame:0 ~line:1 ~word:2 1L;
  store b ~frame:0 ~line:1 ~word:2 2L;
  check_int "a word buffers once per epoch" 1 (Persist.stores_buffered b.p);
  drain b;
  store b ~frame:0 ~line:1 ~word:2 3L;
  check_int "re-dirtied after the drain" 2 (Persist.stores_buffered b.p);
  Alcotest.(check int64) "durable value is the drained one" 2L
    (Persist.durable_value b.p ~frame:b.frames.(0) ~word_index:10)

let test_eager_is_inert () =
  let b = bare ~model:Persist.Eager () in
  check_bool "eager leaves the note unarmed" false (Physmem.persist_armed b.pm);
  store b ~frame:0 ~line:0 ~word:0 5L;
  check_int "eager pending_words" 0 (Persist.pending_words b.p);
  check_int "eager stores_buffered" 0 (Persist.stores_buffered b.p);
  drain b;
  check_int "eager drains nothing" 0 (Persist.drains b.p);
  check_bool "a relaxed engine arms it" true
    (Physmem.persist_armed (bare ()).pm)

let test_model_of_string () =
  let ok s m =
    match Persist.model_of_string s with
    | Ok got -> check_bool s true (got = m)
    | Error e -> Alcotest.failf "%s rejected: %s" s e
  in
  ok "eager" Persist.Eager;
  ok "LAZY" Persist.Lazy_on_detach;
  ok "epoch:8" (Persist.Epoch { interval = 8 });
  ok "epoch:08" (Persist.Epoch { interval = 8 });
  List.iter
    (fun (s, msg) ->
      match Persist.model_of_string s with
      | Ok m -> Alcotest.failf "%s accepted as %s" s (Persist.model_name m)
      | Error e -> Alcotest.(check string) s msg e)
    [
      ("epoch:", "missing epoch interval in \"epoch:\" (expected epoch:N, N >= 1)");
      ("epoch:0x10", "bad epoch interval \"0x10\" in \"epoch:0x10\" (expected decimal digits)");
      ("epoch:1_000", "bad epoch interval \"1_000\" in \"epoch:1_000\" (expected decimal digits)");
      ("epoch:+8", "bad epoch interval \"+8\" in \"epoch:+8\" (expected decimal digits)");
      ("epoch:0", "epoch interval must be >= 1, got 0");
      ( "epoch:99999999999999999999",
        "epoch interval 99999999999999999999 is out of range" );
      ("eagre", "unknown persistency model \"eagre\" (expected eager, epoch:N or lazy)");
    ]

(* --- epoch-engine drain accounting -------------------------------------- *)

let test_harness_drain_accounting () =
  let run persist = Harness.run_benchmark "RB" ~mode:Runtime.Hw ~persist small in
  let eager = run Persist.Eager in
  let epoch = run (Persist.Epoch { interval = 4 }) in
  let lazy_ = run Persist.Lazy_on_detach in
  (* Eager persists in place: no buffering, no drain traffic. *)
  check_int "eager drains" 0 eager.Harness.persist.Harness.drains;
  check_int "eager flushes" 0 eager.Harness.persist.Harness.flushes;
  check_int "eager buffered" 0 eager.Harness.persist.Harness.buffered;
  (* Epoch mode must actually drain: one fence per drain, and at least
     one flushed line per drain on a write-heavy stream. *)
  let p = epoch.Harness.persist in
  check_bool "epoch drains" true (p.Harness.drains > 0);
  check_bool "epoch flushes" true (p.Harness.flushes >= p.Harness.drains);
  check_int "one fence per drain" p.Harness.drains p.Harness.fences;
  (* Lazy drains exactly once, at the closing sync. *)
  check_bool "lazy buffers the whole run" true
    (lazy_.Harness.persist.Harness.buffered > 0);
  check_bool "lazy coalesces: fewer flushes than epoch:4" true
    (lazy_.Harness.persist.Harness.flushes < p.Harness.flushes);
  (* Same functional behaviour under every model. *)
  check_int "epoch hits" eager.Harness.hits epoch.Harness.hits;
  check_int "lazy hits" eager.Harness.hits lazy_.Harness.hits

(* --- the eager pin ------------------------------------------------------ *)

(* `~persist:Eager` must be byte-identical to the pre-existing default:
   same cycles, same attribution, same check counts, same fi report. *)
let test_eager_pin () =
  let explicit =
    Harness.run_benchmark "RB" ~mode:Runtime.Hw ~persist:Persist.Eager small
  in
  let default = Harness.run_benchmark "RB" ~mode:Runtime.Hw small in
  check_int "same run cycles" default.Harness.run.Cpu.cycles
    explicit.Harness.run.Cpu.cycles;
  check_int "same load cycles" default.Harness.load.Cpu.cycles
    explicit.Harness.load.Cpu.cycles;
  check_bool "same run snapshot" true
    (default.Harness.run = explicit.Harness.run);
  check_bool "same check counts" true
    (default.Harness.checks = explicit.Harness.checks);
  let w = F.kv_workload ~structure:"RB" ~records:8 ~ops:24 () in
  let r_explicit = F.run ~persist:Persist.Eager ~spec:F.default_spec w in
  let r_default = F.run ~spec:F.default_spec w in
  check_bool "identical fi reports" true (r_explicit = r_default)

(* --- exhaustive single-core sweeps: oracle vs observation --------------- *)

(* Every event of an RB stream under every retention model.  The sweep
   hard-fails (a violation) whenever the recovered state differs from
   the oracle's predicted epoch boundary in either direction, so "no
   violations" is exactly "oracle matched observed recovery at every
   crash point". *)
let test_rb_sweep_all_models () =
  let sweep persist =
    let w = F.kv_workload ~structure:"RB" ~records:8 ~ops:24 () in
    F.run ~persist ~spec:{ F.default_spec with F.torn = true } w
  in
  let eager = sweep Persist.Eager in
  let epoch = sweep (Persist.Epoch { interval = 4 }) in
  let lazy_ = sweep Persist.Lazy_on_detach in
  List.iter
    (fun (name, (r : F.report)) ->
      no_violations name r;
      check_int (name ^ ": one crash point per event") r.F.events
        (List.length r.F.outcomes))
    [ ("eager", eager); ("epoch:4", epoch); ("lazy", lazy_) ];
  (* The exposure ordering: eager loses nothing, wider retention loses
     more (monotone in the model, verified not estimated). *)
  check_int "eager loses nothing" 0 eager.F.suffix_lost;
  check_bool "epoch:4 exposes some suffix loss" true (epoch.F.suffix_lost > 0);
  check_bool "lazy exposes at least as much as epoch:4" true
    (lazy_.F.suffix_lost >= epoch.F.suffix_lost);
  (* Relaxed sweeps enumerate the drain µ-events too. *)
  check_bool "epoch:4 sweeps flush events" true (epoch.F.tally.F.flushes > 0);
  check_bool "epoch:4 sweeps fence events" true (epoch.F.tally.F.fences > 0);
  check_int "eager has no drain events" 0 eager.F.tally.F.flushes

(* Parallel sweep under a relaxed model must match the sequential one
   byte for byte (share-nothing crash passes). *)
let test_relaxed_jobs_determinism () =
  let w = F.kv_workload ~structure:"RB" ~records:6 ~ops:12 () in
  let spec = { F.default_spec with F.torn = true; F.seed = 7 } in
  let persist = Persist.Epoch { interval = 4 } in
  let seq = F.run ~persist ~spec w in
  let pool = Pool.create ~jobs:4 () in
  let par =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> F.run ~par:(Pool.run pool) ~persist ~spec w)
  in
  check_bool "jobs 4 == jobs 1 under epoch:4" true (seq = par)

(* --- exhaustive 2-core sweep under epoch:4 ------------------------------ *)

(* Every event of the seeded 2-core interleaving, per-core epochs
   draining through the shared buffer: the recovered counter/chain must
   equal the oracle's durable-value prediction at every point. *)
let test_conc_epoch4_sweep () =
  let run persist = F.run ~persist (F.conc_workload ~cores:2 ()) in
  let eager = run Persist.Eager in
  let epoch = run (Persist.Epoch { interval = 4 }) in
  List.iter
    (fun (name, (r : F.report)) ->
      Alcotest.(check (list (pair int string)))
        (name ^ ": no violations") [] r.F.violations;
      check_int
        (name ^ ": one crash point per event")
        r.F.events
        (List.length r.F.outcomes);
      Alcotest.(check string) (name ^ ": two cores") "conc-2core" r.F.workload)
    [ ("eager", eager); ("epoch:4", epoch) ];
  (* The relaxed machine schedules extra drain µ-events, so its sweep
     is strictly longer than the eager one. *)
  check_bool "epoch:4 enumerates drain events" true
    (epoch.F.events > eager.F.events)

let () =
  Alcotest.run "persist"
    [
      ( "engine",
        [
          Alcotest.test_case "drain order is ascending" `Quick test_drain_order;
          Alcotest.test_case "write-through un-buffers" `Quick
            test_write_through_unbuffers;
          Alcotest.test_case "interrupted drain, then crash" `Quick
            test_interrupted_drain_then_crash;
          Alcotest.test_case "re-dirtied word counts again" `Quick
            test_redirty_counts_again;
          Alcotest.test_case "eager engine is inert" `Quick test_eager_is_inert;
          Alcotest.test_case "model_of_string" `Quick test_model_of_string;
          Alcotest.test_case "harness drain accounting" `Quick
            test_harness_drain_accounting;
        ] );
      ( "pin",
        [ Alcotest.test_case "eager is the default, exactly" `Quick
            test_eager_pin ] );
      ( "sweep",
        [
          Alcotest.test_case "RB, every event, all models" `Quick
            test_rb_sweep_all_models;
          Alcotest.test_case "2-core counter+list, epoch:4" `Quick
            test_conc_epoch4_sweep;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs 4 == jobs 1 under epoch:4" `Quick
            test_relaxed_jobs_determinism;
        ] );
    ]
