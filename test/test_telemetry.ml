(* Tests for the telemetry subsystem: registry semantics, enable-flag
   gating, deterministic sink merging, the bounded trace ring — and the
   two pinning contracts the rest of the tree relies on: enabling
   telemetry must not change simulated cycles, and cycle attribution
   must account for every cycle. *)

module Telemetry = Nvml_telemetry.Telemetry
module Latency = Nvml_telemetry.Latency
module Json = Nvml_telemetry.Json
module Pool = Nvml_exec.Pool
module Cpu = Nvml_arch.Cpu
module Runtime = Nvml_runtime.Runtime
module Oplat = Nvml_runtime.Oplat
module Harness = Nvml_kvstore.Harness
module Profile = Nvml_kvstore.Profile
module Workload = Nvml_ycsb.Workload

let check = Alcotest.check
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Run [f] in a fresh sink with recording off (the default). *)
let unrecorded f =
  check_bool "recording is off" false (Telemetry.enabled ());
  Telemetry.run_with_sink (Telemetry.fresh_sink ()) f

(* --- registry ----------------------------------------------------------- *)

let test_registry_interning () =
  let a = Telemetry.counter "test.registry.c" in
  let b = Telemetry.counter "test.registry.c" in
  Telemetry.recording (fun () ->
      Telemetry.incr a;
      Telemetry.incr b;
      check_int "same name, same cell" 2 (Telemetry.value a))

let test_registry_kind_conflict () =
  ignore (Telemetry.counter "test.registry.kind");
  match Telemetry.latency "test.registry.kind" with
  | _ -> Alcotest.fail "expected Invalid_argument on kind conflict"
  | exception Invalid_argument _ -> ()

(* The recording calls test the flag themselves, so callers never guard
   them: with recording off, a million calls of each leave the sink
   empty and allocate nothing.  The two readings go into a float array
   so that keeping them allocates no box either. *)
let test_disabled_records_nothing () =
  let c = Telemetry.counter "test.gate.c" in
  let l = Telemetry.latency "test.gate.l" in
  let n = 1_000_000 in
  let words = Array.make 2 0.0 in
  unrecorded (fun () ->
      words.(0) <- Gc.minor_words ();
      for i = 1 to n do
        Telemetry.incr c;
        Telemetry.add c i;
        Telemetry.record l i;
        Telemetry.event "test.gate.e"
      done;
      words.(1) <- Gc.minor_words ();
      check_int "counter untouched" 0 (Telemetry.value c);
      check_bool "latency untouched" false
        (List.mem_assoc "test.gate.l" (Telemetry.lats_snapshot ()));
      check_int "no events" 0 (Telemetry.events_total ()));
  check (Alcotest.float 0.0) "no minor words" 0.0 (words.(1) -. words.(0))

(* [recording] turns the flag on over a fresh sink and puts back the
   flag and the sink it found, also when its body raises: off outside
   any scope, on inside an enclosing one. *)
let test_recording_restores () =
  let c = Telemetry.counter "test.recording.c" in
  let raising () =
    match
      Telemetry.recording (fun () ->
          check_bool "on inside" true (Telemetry.enabled ());
          Telemetry.incr c;
          raise Exit)
    with
    | () -> Alcotest.fail "expected Exit"
    | exception Exit -> ()
  in
  let outer = Telemetry.fresh_sink () in
  Telemetry.run_with_sink outer (fun () ->
      raising ();
      check_bool "flag back off" false (Telemetry.enabled ());
      check_bool "sink restored" true (Telemetry.current_sink () == outer);
      check_int "the count stayed in the inner sink" 0 (Telemetry.value c));
  Telemetry.recording (fun () ->
      let enclosing = Telemetry.current_sink () in
      raising ();
      check_bool "flag still on" true (Telemetry.enabled ());
      check_bool "enclosing sink restored" true
        (Telemetry.current_sink () == enclosing);
      check_int "the count stayed in the inner sink" 0 (Telemetry.value c));
  check_bool "flag off after both" false (Telemetry.enabled ())

(* --- merge -------------------------------------------------------------- *)

(* Everything observable about a sink, read through its own scope. *)
let view s =
  Telemetry.run_with_sink s (fun () ->
      ( Telemetry.counters_snapshot (),
        Telemetry.lats_snapshot (),
        Telemetry.events_snapshot (),
        Telemetry.events_total () ))

let test_merge_associativity () =
  Telemetry.recording @@ fun () ->
  let c1 = Telemetry.counter "test.merge.c1" in
  let c2 = Telemetry.counter "test.merge.c2" in
  let l = Telemetry.latency "test.merge.l" in
  let make tag n =
    let s = Telemetry.fresh_sink () in
    Telemetry.run_with_sink s (fun () ->
        for i = 1 to n do
          Telemetry.incr c1;
          Telemetry.add c2 i;
          Telemetry.record l (i * 3);
          Telemetry.event tag ~args:[ ("i", i) ]
        done);
    s
  in
  let left =
    let dst = Telemetry.fresh_sink () in
    List.iter
      (fun s -> Telemetry.merge_into ~dst s)
      [ make "a" 3; make "b" 4; make "c" 5 ];
    dst
  in
  let right =
    let dst = Telemetry.fresh_sink () in
    Telemetry.merge_into ~dst (make "a" 3);
    let bc = Telemetry.fresh_sink () in
    Telemetry.merge_into ~dst:bc (make "b" 4);
    Telemetry.merge_into ~dst:bc (make "c" 5);
    Telemetry.merge_into ~dst bc;
    dst
  in
  check_bool "((a+b)+c) = (a+(b+c))" true (view left = view right)

let test_merge_empty_sinks () =
  Telemetry.recording @@ fun () ->
  let c = Telemetry.counter "test.merge.empty" in
  let s = Telemetry.fresh_sink () in
  Telemetry.run_with_sink s (fun () ->
      Telemetry.add c 9;
      Telemetry.event "only");
  let before = view s in
  (* Merging an empty sink in is the identity... *)
  Telemetry.merge_into ~dst:s (Telemetry.fresh_sink ());
  check_bool "empty source is identity" true (before = view s);
  (* ...and merging into an empty sink is a copy. *)
  let dst = Telemetry.fresh_sink () in
  Telemetry.merge_into ~dst s;
  check_bool "empty destination copies" true (before = view dst)

let test_pool_merge_matches_sequential () =
  let c = Telemetry.counter "test.pool.c" in
  let l = Telemetry.latency "test.pool.l" in
  let tasks =
    List.init 6 (fun i () ->
        Telemetry.add c (i + 1);
        Telemetry.record l (i * 2);
        Telemetry.event "task" ~args:[ ("i", i) ];
        i)
  in
  let run jobs =
    Telemetry.recording (fun () ->
        let pool = Pool.create ~jobs () in
        let out =
          Fun.protect
            ~finally:(fun () -> Pool.shutdown pool)
            (fun () -> Pool.run pool tasks)
        in
        ( out,
          Telemetry.counters_snapshot (),
          Telemetry.lats_snapshot (),
          Telemetry.events_snapshot () ))
  in
  check_bool "--jobs 4 telemetry equals --jobs 1" true (run 1 = run 4)

(* --- trace ring --------------------------------------------------------- *)

let with_capacity n f =
  Telemetry.set_trace_capacity n;
  Fun.protect ~finally:(fun () -> Telemetry.set_trace_capacity 8192) f

let event_is (e : Telemetry.event) = List.assoc "i" e.Telemetry.args

let test_ring_wraparound () =
  with_capacity 4 @@ fun () ->
  Telemetry.recording (fun () ->
      for i = 1 to 10 do
        Telemetry.event "e" ~args:[ ("i", i) ]
      done;
      check_int "total counts every push" 10 (Telemetry.events_total ());
      check_int "dropped = total - capacity" 6 (Telemetry.events_dropped ());
      check
        Alcotest.(list int)
        "ring keeps the last capacity events" [ 7; 8; 9; 10 ]
        (List.map event_is (Telemetry.events_snapshot ())))

let test_ring_merge_keeps_suffix () =
  with_capacity 4 @@ fun () ->
  Telemetry.recording @@ fun () ->
  let make lo =
    let s = Telemetry.fresh_sink () in
    Telemetry.run_with_sink s (fun () ->
        for i = lo to lo + 2 do
          Telemetry.event "e" ~args:[ ("i", i) ]
        done);
    s
  in
  let dst = Telemetry.fresh_sink () in
  Telemetry.merge_into ~dst (make 1);
  Telemetry.merge_into ~dst (make 4);
  let _, _, events, total = view dst in
  check_int "total is the concatenation's" 6 total;
  check
    Alcotest.(list int)
    "ring holds the concatenation's suffix" [ 3; 4; 5; 6 ]
    (List.map event_is events)

let test_span_nesting () =
  Telemetry.recording (fun () ->
      let r =
        Telemetry.span "outer" (fun () ->
            1 + Telemetry.span "inner" (fun () -> 7))
      in
      check_int "span passes the result through" 8 r;
      (try Telemetry.span "boom" (fun () -> raise Exit) with Exit -> ());
      let shape =
        List.map
          (fun (e : Telemetry.event) ->
            ( e.Telemetry.ename,
              match e.Telemetry.phase with
              | Telemetry.Begin -> "B"
              | Telemetry.End -> "E"
              | Telemetry.Instant -> "i" ))
          (Telemetry.events_snapshot ())
      in
      check
        Alcotest.(list (pair string string))
        "begin/end events nest, end survives a raise"
        [
          ("outer", "B"); ("inner", "B"); ("inner", "E"); ("outer", "E");
          ("boom", "B"); ("boom", "E");
        ]
        shape)

(* --- pinning ------------------------------------------------------------ *)

let quick_spec =
  {
    Workload.paper_default with
    Workload.record_count = 300;
    operation_count = 1500;
  }

(* The timing model never reads telemetry: the simulated machine must
   produce identical results with recording on and off. *)
let test_telemetry_does_not_change_cycles () =
  let run () = Harness.run_benchmark "RB" ~mode:Runtime.Sw quick_spec in
  let off = unrecorded run in
  let on = Telemetry.recording run in
  check_int "cycles pinned" off.Harness.run.Cpu.cycles on.Harness.run.Cpu.cycles;
  check_int "instructions pinned" off.Harness.run.Cpu.instrs
    on.Harness.run.Cpu.instrs;
  check_bool "whole snapshot pinned" true (off.Harness.run = on.Harness.run)

(* Every cycle beyond the per-instruction base is charged to exactly
   one stall source, in every mode. *)
let test_attribution_sums_to_cycles () =
  List.iter
    (fun mode ->
      let r = Harness.run_benchmark "Hash" ~mode quick_spec in
      check_int
        (Runtime.mode_name mode ^ " attribution accounts for every cycle")
        r.Harness.run.Cpu.cycles
        (Cpu.attribution_total r.Harness.attr))
    [ Runtime.Volatile; Runtime.Sw; Runtime.Hw; Runtime.Explicit ]

(* --- pointerAssignment outcomes ------------------------------------------ *)

let pa_outcomes = [ "keep_relative"; "keep_virtual"; "va2ra"; "ra2va" ]

let pa_counts counters =
  List.map
    (fun k -> List.assoc ("check.pointer_assignment." ^ k) counters)
    pa_outcomes

let site = Nvml_runtime.Site.make "test.telemetry.store"

(* One pointer store of each Fig. 3 outcome counts once, on the SW and
   on the HW machine: NVM and DRAM cells, each given a relative and a
   virtual value. *)
let test_pa_outcome_per_store () =
  List.iter
    (fun mode ->
      let counts =
        Telemetry.recording (fun () ->
            let rt = Runtime.create ~mode () in
            let pool = Runtime.create_pool rt ~name:"t" ~size:(1 lsl 20) in
            let nvm = Runtime.alloc_in rt (Runtime.Pool_region pool) 64 in
            let nvm_va = Nvml_core.Xlate.ra2va (Runtime.xlate rt) nvm in
            let dram = Runtime.alloc_in rt Runtime.Dram_region 64 in
            let store cell v = Runtime.store_ptr rt ~site cell ~off:0 v in
            store nvm nvm;
            store dram dram;
            store nvm nvm_va;
            store dram nvm;
            pa_counts (Telemetry.counters_snapshot ()))
      in
      check
        Alcotest.(list int)
        (Runtime.mode_name mode ^ " counts one of each")
        [ 1; 1; 1; 1 ] counts)
    [ Runtime.Sw; Runtime.Hw ]

(* On the HW machine every pointer store is one storeP, and each takes
   exactly one of the four outcomes. *)
let test_pa_outcomes_sum_to_storep () =
  let counters =
    Telemetry.recording (fun () ->
        ignore (Harness.run_benchmark "RB" ~mode:Runtime.Hw quick_spec);
        Telemetry.counters_snapshot ())
  in
  let storep = List.assoc "storep.issued" counters in
  check_bool "the run issued storePs" true (storep > 0);
  check_int "outcomes sum to storeP" storep
    (List.fold_left ( + ) 0 (pa_counts counters))

(* --- latency recorder --------------------------------------------------- *)

(* The documented error contract: a reported percentile never
   underestimates the exact order statistic and overestimates it by
   less than [rel_error_bound] (values below one sub-bucket span are
   exact).  Checked against a sorted-array oracle over distributions
   with very different shapes, including a heavy tail. *)
let test_percentile_oracle () =
  let distributions =
    [
      ("uniform", fun rng -> Random.State.int rng 10_000);
      ("constant", fun _ -> 4242);
      ("small-exact", fun rng -> Random.State.int rng 32);
      ( "heavy-tail",
        fun rng ->
          let v = 50 + Random.State.int rng 50 in
          if Random.State.int rng 1000 < 5 then v * 1000 else v );
      ("powers", fun rng -> 1 lsl Random.State.int rng 40);
    ]
  in
  List.iter
    (fun (name, gen) ->
      let rng = Random.State.make [| 42 |] in
      let n = 5_000 in
      let t = Latency.create () in
      let values = Array.init n (fun _ -> gen rng) in
      Array.iter (Latency.record t) values;
      let sorted = Array.copy values in
      Array.sort compare sorted;
      List.iter
        (fun q ->
          let rank =
            max 1 (min n (int_of_float (ceil (q *. float_of_int n))))
          in
          let exact = sorted.(rank - 1) in
          let approx = Latency.percentile t q in
          if approx < exact then
            Alcotest.failf "%s p%g: %d underestimates exact %d" name
              (100. *. q) approx exact;
          let bound =
            float_of_int exact *. (1.0 +. Latency.rel_error_bound)
          in
          if float_of_int approx > bound then
            Alcotest.failf "%s p%g: %d exceeds error bound %.1f (exact %d)"
              name (100. *. q) approx bound exact)
        [ 0.5; 0.9; 0.99; 0.999; 1.0 ])
    distributions

(* Merging per-cell recorders in any order and grouping must yield the
   same state as recording everything into one — the property the
   --jobs determinism of the bench metrics rests on. *)
let test_latency_merge_deterministic () =
  let rng = Random.State.make [| 7 |] in
  let chunks =
    List.init 4 (fun _ -> Array.init 500 (fun _ -> Random.State.int rng 100_000))
  in
  let record vs =
    let t = Latency.create () in
    Array.iter (Latency.record t) vs;
    t
  in
  let single = record (Array.concat chunks) in
  let left =
    let dst = Latency.create () in
    List.iter (fun vs -> Latency.merge_into ~dst (record vs)) chunks;
    dst
  in
  let right =
    let dst = Latency.create () in
    List.iter
      (fun vs -> Latency.merge_into ~dst (record vs))
      (List.rev chunks);
    dst
  in
  check_bool "merge order is immaterial" true
    (Latency.summary left = Latency.summary right);
  check_bool "merged equals single recorder" true
    (Latency.summary left = Latency.summary single)

(* Merging an empty recorder is an exact no-op: every observable of the
   destination — summary, min/max, and the whole percentile ladder —
   is unchanged.  An idle worker domain joining a pool must not perturb
   the merged document (the empty source's sentinel vmin/vmax must not
   leak into the destination). *)
let test_latency_merge_empty_noop () =
  let rng = Random.State.make [| 21 |] in
  let dst = Latency.create () in
  for _ = 1 to 300 do
    Latency.record dst (1 + Random.State.int rng 50_000)
  done;
  let observe t =
    ( Latency.summary t,
      Latency.min_value t,
      Latency.max_value t,
      List.map (Latency.percentile t) [ 0.0; 0.1; 0.5; 0.9; 0.99; 0.999; 1.0 ]
    )
  in
  let before = observe dst in
  Latency.merge_into ~dst (Latency.create ());
  check_bool "empty source leaves populated dst unchanged" true
    (observe dst = before);
  let empty_dst = Latency.create () in
  Latency.merge_into ~dst:empty_dst (Latency.create ());
  check_bool "empty into empty stays empty" true
    (observe empty_dst = observe (Latency.create ()))

(* Worker-domain latency recordings merge into the submitting domain's
   sink at pool join, so the sink snapshot is identical across --jobs
   counts. *)
let test_latency_jobs_determinism () =
  let l = Telemetry.latency "test.lat.pool" in
  let tasks =
    List.init 6 (fun i () ->
        for k = 1 to 50 do
          Telemetry.record l ((i * 1000) + (k * k))
        done;
        i)
  in
  let run jobs =
    Telemetry.recording (fun () ->
        let pool = Pool.create ~jobs () in
        let out =
          Fun.protect
            ~finally:(fun () -> Pool.shutdown pool)
            (fun () -> Pool.run pool tasks)
        in
        ( out,
          List.map
            (fun (name, t) -> (name, Latency.summary t))
            (Telemetry.lats_snapshot ()) ))
  in
  check_bool "--jobs 4 latencies equal --jobs 1" true (run 1 = run 4)

(* --- per-op latency bracketing ------------------------------------------ *)

(* The per-op partition invariant: every bracketed operation's five
   components sum to its cycles, the component totals sum to the
   recorder's cycle sum, and the op latencies sum to the run phase's
   cycles — in every execution mode.  This is the guarantee that makes
   the tail attribution trustworthy: no cycle is dropped or double
   counted on the way from the core's stall accounting to the report. *)
let test_oplat_attribution_sums () =
  List.iter
    (fun mode ->
      let r = Harness.run_benchmark "RB" ~mode quick_spec in
      let ol = r.Harness.oplat in
      let name = Runtime.mode_name mode in
      check_int (name ^ ": op count is the op stream")
        quick_spec.Workload.operation_count (Oplat.count ol);
      check_int
        (name ^ ": op latencies sum to run-phase cycles")
        r.Harness.run.Cpu.cycles
        (Latency.sum (Oplat.latency ol));
      check_int
        (name ^ ": component totals sum to the cycle sum")
        (Latency.sum (Oplat.latency ol))
        (Oplat.components_total (Oplat.totals ol));
      List.iter
        (fun (s : Oplat.sample) ->
          check_int
            (Printf.sprintf "%s: slow op #%d components sum to its cycles"
               name s.Oplat.seq)
            s.Oplat.cycles
            (Oplat.components_total s.Oplat.comps))
        (Oplat.slowest ol))
    [ Runtime.Volatile; Runtime.Sw; Runtime.Hw; Runtime.Explicit ]

(* Fast functional mode still reports latencies — cycles equal
   instructions and every non-base component is zero. *)
let test_oplat_fast_mode () =
  let cfg = { Runtime.Config.default with timing = false } in
  let r = Harness.run_benchmark "RB" ~mode:Runtime.Hw ~cfg quick_spec in
  check_int "fast mode: cycles = instrs" r.Harness.run.Cpu.instrs
    r.Harness.run.Cpu.cycles;
  let tot = Oplat.totals r.Harness.oplat in
  check_int "fast mode: no check cycles" 0 tot.Oplat.check;
  check_int "fast mode: no translation cycles" 0 tot.Oplat.translation;
  check_int "fast mode: no stall cycles" 0 tot.Oplat.stall;
  check_int "fast mode: no media cycles" 0 tot.Oplat.media;
  check_int "fast mode: base carries everything"
    (Latency.sum (Oplat.latency r.Harness.oplat))
    tot.Oplat.base

(* The spans a retained op carries into a slow-op trace: the op alone
   when unmarked, else also the driver's prefix up to the mark and the
   op's rest after it, which a mark at the op's last cycle drops.  On a
   bare core, [Cpu.instr cpu n] takes n cycles. *)
let test_oplat_spans () =
  let cpu = Cpu.create Nvml_arch.Config.default (Nvml_simmem.Mem.create ()) in
  let ol = Oplat.create ~cell:"spans" () in
  let spans name ?driver rest =
    Oplat.op_begin ol cpu;
    Option.iter (fun n -> Cpu.instr cpu n; Oplat.mark_driver ol cpu) driver;
    Cpu.instr cpu rest;
    Oplat.op_end ol cpu name;
    (List.find (fun s -> s.Oplat.op = name) (Oplat.slowest ol)).Oplat.spans
  in
  let check_spans = check Alcotest.(list (triple string int int)) in
  check_spans "unmarked op" [ ("get", 0, 5) ] (spans "get" 5);
  check_spans "marked op"
    [ ("put", 0, 7); ("driver", 0, 3); ("put", 3, 7) ]
    (spans "put" ~driver:3 4);
  check_spans "mark at the last cycle"
    [ ("scan", 0, 6); ("driver", 0, 6) ]
    (spans "scan" ~driver:6 0)

(* The hot-path contract: recording a latency allocates nothing.  A
   small slack absorbs runtime noise (e.g. a stray boxed read); the
   guard fails loudly if [record] ever gains a per-call allocation. *)
let test_record_allocation_free () =
  let t = Latency.create () in
  let n = 100_000 in
  Latency.record t 1;
  let before = Gc.minor_words () in
  for i = 1 to n do
    Latency.record t i
  done;
  let words = Gc.minor_words () -. before in
  if words >= 64.0 then
    Alcotest.failf "record allocated %.0f minor words over %d calls" words n

(* --- JSON --------------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("a", Json.Int 1);
        ( "b",
          Json.List
            [ Json.Float 0.5; Json.String "x\"y\n"; Json.Null; Json.Bool true ]
        );
        ("empty", Json.Obj []);
      ]
  in
  match Json.of_string (Json.to_string doc) with
  | Ok d -> check_bool "parse (print doc) = doc" true (d = doc)
  | Error e -> Alcotest.fail e

(* Every stats document has one shape; the profile's adds its
   benchmark and sites, and lists the storeP and VATB recorders. *)
let test_stats_json_shape () =
  let keys = function Json.Obj fields -> List.map fst fields | _ -> [] in
  let shape =
    [
      "schema"; "derived"; "counters"; "latencies"; "events_total";
      "events_dropped";
    ]
  in
  Telemetry.recording (fun () ->
      Telemetry.incr (Telemetry.counter "test.schema.c");
      Telemetry.record (Telemetry.latency "test.schema.l") 5;
      let doc = Telemetry.stats_json ~derived:[ ("x.rate", 0.5) ] () in
      check Alcotest.(list string) "top-level keys" shape (keys doc);
      check_bool "derived key present" true
        (Json.path [ "derived"; "x.rate" ] doc = Some (Json.Float 0.5));
      check_bool "counter present" true
        (Json.path [ "counters"; "test.schema.c" ] doc = Some (Json.Int 1));
      check_bool "latency present" true
        (Json.path [ "latencies"; "test.schema.l"; "max" ] doc
        = Some (Json.Int 5)));
  let doc = Profile.stats_json (Profile.run ~benchmark:"RB" quick_spec) in
  check
    Alcotest.(list string)
    "profile keys"
    (shape @ [ "benchmark"; "sites" ])
    (keys doc);
  List.iter
    (fun name ->
      check_bool (name ^ " is a latency") true
        (Json.path [ "latencies"; name; "count" ] doc <> None))
    [ "storep.occupancy"; "vatb.walk_depth" ]

let () =
  Alcotest.run "telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "interning" `Quick test_registry_interning;
          Alcotest.test_case "kind conflict" `Quick test_registry_kind_conflict;
          Alcotest.test_case "disabled is off" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "recording restores" `Quick
            test_recording_restores;
        ] );
      ( "merge",
        [
          Alcotest.test_case "associativity" `Quick test_merge_associativity;
          Alcotest.test_case "empty sinks" `Quick test_merge_empty_sinks;
          Alcotest.test_case "pool join determinism" `Quick
            test_pool_merge_matches_sequential;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "ring merge suffix" `Quick
            test_ring_merge_keeps_suffix;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
        ] );
      ( "pinning",
        [
          Alcotest.test_case "telemetry does not change cycles" `Quick
            test_telemetry_does_not_change_cycles;
          Alcotest.test_case "attribution sums to cycles" `Quick
            test_attribution_sums_to_cycles;
        ] );
      ( "checks",
        [
          Alcotest.test_case "one outcome per pointer store" `Quick
            test_pa_outcome_per_store;
          Alcotest.test_case "HW outcomes sum to storeP" `Quick
            test_pa_outcomes_sum_to_storep;
        ] );
      ( "latency",
        [
          Alcotest.test_case "percentile vs sorted oracle" `Quick
            test_percentile_oracle;
          Alcotest.test_case "merge determinism" `Quick
            test_latency_merge_deterministic;
          Alcotest.test_case "merge empty no-op" `Quick
            test_latency_merge_empty_noop;
          Alcotest.test_case "pool join determinism" `Quick
            test_latency_jobs_determinism;
          Alcotest.test_case "record is allocation-free" `Quick
            test_record_allocation_free;
        ] );
      ( "oplat",
        [
          Alcotest.test_case "attribution sums per op" `Quick
            test_oplat_attribution_sums;
          Alcotest.test_case "fast mode latencies" `Quick test_oplat_fast_mode;
          Alcotest.test_case "slow-op spans" `Quick test_oplat_spans;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "stats shape" `Quick test_stats_json_shape;
        ] );
    ]
