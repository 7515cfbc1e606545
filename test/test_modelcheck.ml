(* Regression tests for the fuzzer's planted bugs (each written to fail
   on the pre-fix code, still reachable through the quirk hooks), tests
   of the engine itself, and the component models at pinned seeds. *)

module Cache = Nvml_arch.Cache
module Valb = Nvml_arch.Valb
module Freelist = Nvml_pool.Freelist
module Config = Nvml_arch.Config
module Pool = Nvml_exec.Pool
module Engine = Nvml_modelcheck.Engine
module Harnesses = Nvml_modelcheck.Harnesses
module Modelcheck = Nvml_modelcheck.Modelcheck
module Telemetry = Nvml_telemetry.Telemetry
module Latency = Nvml_telemetry.Latency

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- cache: invalidate must release the way ---------------------------- *)

(* Pre-fix, [invalidate] cleared the tag but left the LRU stamp, so the
   refill after an invalidate evicted a *valid* line (its stamp was
   older than the invalid way's stale one). *)
let test_cache_invalidate_then_refill () =
  let c = Cache.create ~sets:1 ~ways:2 ~index_shift:6 in
  ignore (Cache.access c 0x000) (* A -> way 0 *);
  ignore (Cache.access c 0x040) (* B -> way 1 *);
  ignore (Cache.access c 0x000) (* touch A: B is LRU *);
  Cache.invalidate c 0x000;
  ignore (Cache.access c 0x080) (* C must take A's freed way *);
  check_bool "B survives the refill" true (Cache.probe c 0x040);
  check_bool "C is resident" true (Cache.probe c 0x080);
  check_bool "A is gone" false (Cache.probe c 0x000)

(* The same sequence under the quirk documents the historical bug the
   fuzzer's --break self-test plants. *)
let test_cache_quirk_reproduces_bug () =
  let c = Cache.create ~sets:1 ~ways:2 ~index_shift:6 in
  Cache.enable_quirk c Cache.Stale_invalidate_stamp;
  ignore (Cache.access c 0x000);
  ignore (Cache.access c 0x040);
  ignore (Cache.access c 0x000);
  Cache.invalidate c 0x000;
  ignore (Cache.access c 0x080);
  check_bool "pre-fix: valid B was evicted" false (Cache.probe c 0x040)

(* --- valb: dedup and shootdown ----------------------------------------- *)

(* Pre-fix, repeated VAW refills for one pool occupied several CAM ways. *)
let test_valb_duplicate_refill () =
  let v = Valb.create ~entries:4 in
  Valb.insert v ~base:0x1000L ~size:0x1000L ~pool:1;
  Valb.insert v ~base:0x1000L ~size:0x1000L ~pool:1;
  Valb.insert v ~base:0x2000L ~size:0x1000L ~pool:1 (* remap, same pool *);
  let ways = List.filter (fun (_, _, p) -> p = 1) (Valb.dump v) in
  check_int "one way per pool" 1 (List.length ways);
  (match ways with
  | [ (base, _, _) ] ->
      Alcotest.(check int64) "refresh took the remapped base" 0x2000L base
  | _ -> Alcotest.fail "expected exactly one way");
  check_bool "old range no longer hits" true (Valb.lookup v 0x1234L = None)

let test_valb_quirk_duplicates () =
  let v = Valb.create ~entries:4 in
  Valb.enable_quirk v Valb.Duplicate_insert;
  Valb.insert v ~base:0x1000L ~size:0x1000L ~pool:1;
  Valb.insert v ~base:0x1000L ~size:0x1000L ~pool:1;
  let ways = List.filter (fun (_, _, p) -> p = 1) (Valb.dump v) in
  check_int "pre-fix: pool occupies two ways" 2 (List.length ways)

(* Pre-fix, a shootdown left the invalidated way at its recency
   position, so the next refill evicted a valid entry instead of reusing
   the way. *)
let test_valb_shootdown_then_refill () =
  let v = Valb.create ~entries:2 in
  Valb.insert v ~base:0x1000L ~size:0x1000L ~pool:1;
  Valb.insert v ~base:0x2000L ~size:0x1000L ~pool:2;
  ignore (Valb.lookup v 0x1800L) (* touch pool 1: pool 2 is LRU *);
  Valb.invalidate_pool v 1;
  Valb.insert v ~base:0x3000L ~size:0x1000L ~pool:3;
  check_bool "pool 2 survives the refill" true (Valb.lookup v 0x2800L = Some 2);
  check_bool "pool 3 is resident" true (Valb.lookup v 0x3800L = Some 3)

let test_valb_quirk_stale_shootdown () =
  let v = Valb.create ~entries:2 in
  Valb.enable_quirk v Valb.Stale_invalidate_stamp;
  Valb.insert v ~base:0x1000L ~size:0x1000L ~pool:1;
  Valb.insert v ~base:0x2000L ~size:0x1000L ~pool:2;
  ignore (Valb.lookup v 0x1800L);
  Valb.invalidate_pool v 1;
  Valb.insert v ~base:0x3000L ~size:0x1000L ~pool:3;
  check_bool "pre-fix: valid pool 2 was evicted" true
    (Valb.lookup v 0x2800L = None)

(* --- freelist: interior pointers and heap tiling ------------------------ *)

let make_arena () =
  let words : (int64, int64) Hashtbl.t = Hashtbl.create 64 in
  {
    Freelist.read =
      (fun off -> Option.value ~default:0L (Hashtbl.find_opt words off));
    write = (fun off v -> Hashtbl.replace words off v);
  }

(* Pre-fix, [free] validated only the block start, so an interior
   pointer landing on application bytes that spell an allocated header
   with a size running past the arena end was accepted — corrupting the
   accounting and chaining a bogus block into the free list.  The
   header checksum now rejects the phantom header one layer earlier:
   application bytes that happen to parse as a size will not also carry
   a matching CRC. *)
let test_freelist_rejects_interior_pointer () =
  let a = make_arena () in
  Freelist.init a ~capacity:4096L;
  let p = Freelist.alloc a 100L in
  (* Application bytes at p+8 that look like an allocated 8192-byte
     block; the bogus payload starts header_size past them. *)
  a.Freelist.write (Int64.add p 8L) (Int64.logor 8192L 1L);
  let bogus = Int64.add p (Int64.add 8L Freelist.header_size) in
  Alcotest.check_raises "interior pointer rejected"
    (Freelist.Corrupt_arena
       (Fmt.str "block header at %Ld fails its checksum"
          (Int64.sub bogus Freelist.header_size)))
    (fun () -> Freelist.free a bogus);
  ignore (Freelist.check_invariants a)

(* The extended invariant check recomputes the allocated accounting by
   tiling the whole heap, so silent header corruption is caught even
   though the free list itself still parses. *)
let test_freelist_tiling_catches_header_corruption () =
  let a = make_arena () in
  Freelist.init a ~capacity:4096L;
  let p = Freelist.alloc a 48L in
  let _q = Freelist.alloc a 48L in
  ignore (Freelist.check_invariants a) (* sane before the corruption *);
  let header = Int64.sub p Freelist.header_size in
  a.Freelist.write header (Int64.logor 96L 1L) (* grow 64 -> 96 *);
  check_bool "corruption detected" true
    (match Freelist.check_invariants a with
    | _ -> false
    | exception Freelist.Corrupt_arena _ -> true)

(* --- engine: shrinking and determinism ---------------------------------- *)

(* A planted harness that fails exactly when the third [`Boom] lands:
   shrinking must strip every [`Inc] and keep precisely three booms. *)
let boom_harness =
  Engine.Packed
    {
      Engine.component = "test-boom";
      gen =
        (fun rng ->
          if Random.State.int rng 100 < 30 then `Boom else `Inc);
      pp = (function `Boom -> "boom" | `Inc -> "inc");
      init =
        (fun ~seed:_ ->
          let booms = ref 0 in
          fun op ->
            if op = `Boom then begin
              incr booms;
              if !booms >= 3 then
                raise (Engine.Violation "three booms")
            end);
    }

let test_engine_shrinks_to_minimum () =
  let r = Engine.run boom_harness ~ops:300 ~seed:5 in
  match r.Engine.violation with
  | None -> Alcotest.fail "expected a violation"
  | Some v ->
      check_int "minimal counterexample" 3 (List.length v.Engine.trace);
      check_bool "only booms survive shrinking" true
        (List.for_all (( = ) "boom") v.Engine.trace);
      check_bool "shrunk from a longer prefix" true
        (v.Engine.shrunk_from > 3)

let test_engine_replay_deterministic () =
  let a = Engine.run boom_harness ~ops:300 ~seed:5 in
  let b = Engine.run boom_harness ~ops:300 ~seed:5 in
  check_bool "same seed, same result" true (a = b)

(* --- driver: --break self-test and parallel determinism ------------------ *)

let mech = [ "cache"; "valb"; "storep"; "freelist" ]

let test_break_finds_planted_bugs () =
  let report =
    Modelcheck.run ~break:true ~components:mech ~ops:600 ~seed:1 ()
  in
  check_bool "both planted bugs found, clean components quiet" true
    (Modelcheck.break_run_ok report);
  check_int "exactly the two quirky components violate" 2
    report.Modelcheck.violations

let test_fixed_components_survive_break_seeds () =
  (* With the fixes in, a multi-seed sweep must stay quiet. *)
  for seed = 1 to 5 do
    let report = Modelcheck.run ~components:mech ~ops:400 ~seed () in
    check_int (Fmt.str "seed %d clean" seed) 0 report.Modelcheck.violations
  done

(* Components share nothing and the pool keeps submission order, so a
   4-domain run must reproduce the sequential report and its bytes. *)
let test_parallel_matches_sequential () =
  let components =
    mech
    @ [ "vatb"; "pmop"; "zipf"; "structures:RB"; "physmem"; "vspace";
        "relwin"; "txn"; "fcache" ]
  in
  (* timing defaults to false: this is the fast path. *)
  let sequential = Modelcheck.run ~components ~ops:300 ~seed:3 () in
  let pool = Pool.create ~jobs:4 () in
  let parallel =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Modelcheck.run ~pool ~components ~ops:300 ~seed:3 ())
  in
  check_bool "jobs 4 == jobs 1 (reports)" true (sequential = parallel);
  Alcotest.(check string)
    "jobs 4 == jobs 1 (rendered bytes)"
    (Fmt.str "%a" Modelcheck.pp_report sequential)
    (Fmt.str "%a" Modelcheck.pp_report parallel)

(* --- reference models at pinned seeds --------------------------------------- *)

(* Each model runs at the pinned seeds: the fuzzer's own geometry in
   the "models" group, and the machine's (Table IV) or several
   capacities where the fuzzer runs a small one.  [physmem], [vspace],
   [relwin] and [txn] run from the tests of the modules they model. *)
let clean = Pinned.clean
let cfg = { Config.default with timing = false }

(* A one-slot cache evicts on every miss, a 64-slot one rarely between
   flushes; each must evict clean and dirty victims alike. *)
let test_fcache_capacities () =
  List.iter
    (fun capacity ->
      let what = Fmt.str "%d-slot front cache" capacity in
      let victims =
        Telemetry.recording (fun () ->
            clean what (Harnesses.Fcache_h.harness ~cfg ~capacity ());
            Telemetry.counters_snapshot ())
      in
      List.iter
        (fun kind ->
          let name = Fmt.str "fuzz.fcache.%s_victims" kind in
          check_bool (Fmt.str "%s: %s victims" what kind) true
            (List.assoc name victims > 0))
        [ "clean"; "dirty" ])
    [ 1; 2; 7; 64 ]

(* 6 sets index by modulo, as the L2 TLB's 384 do; 8 ways is the data
   caches' associativity.  The planted quirk is found here too. *)
let test_cache_table4 () =
  clean "6 x 8 cache" (Harnesses.Cache_h.harness ~sets:6 ~ways:8 ~break:false ());
  let broken = Harnesses.Cache_h.harness ~sets:6 ~ways:8 ~break:true () in
  check_bool "quirk found" true
    ((Engine.run broken ~ops:2000 ~seed:1).Engine.violation <> None)

(* The 32-entry unit under latencies of up to 131 cycles, issued 0-3
   cycles apart: the occupancy recorder shows that the unit filled. *)
let test_storep_table4 () =
  let peak =
    Telemetry.recording (fun () ->
        clean "32-entry storeP unit" (Harnesses.Storep_h.harness ~entries:32 ());
        Latency.max_value
          (List.assoc "storep.occupancy" (Telemetry.lats_snapshot ())))
  in
  check_int "the unit fills" 32 peak

let () =
  Alcotest.run "modelcheck"
    [
      ( "regressions",
        [
          Alcotest.test_case "cache invalidate then refill" `Quick
            test_cache_invalidate_then_refill;
          Alcotest.test_case "cache quirk reproduces bug" `Quick
            test_cache_quirk_reproduces_bug;
          Alcotest.test_case "valb duplicate refill" `Quick
            test_valb_duplicate_refill;
          Alcotest.test_case "valb quirk duplicates" `Quick
            test_valb_quirk_duplicates;
          Alcotest.test_case "valb shootdown then refill" `Quick
            test_valb_shootdown_then_refill;
          Alcotest.test_case "valb quirk stale shootdown" `Quick
            test_valb_quirk_stale_shootdown;
          Alcotest.test_case "freelist rejects interior pointer" `Quick
            test_freelist_rejects_interior_pointer;
          Alcotest.test_case "freelist tiling catches corruption" `Quick
            test_freelist_tiling_catches_header_corruption;
        ] );
      ( "engine",
        [
          Alcotest.test_case "shrinks to minimum" `Quick
            test_engine_shrinks_to_minimum;
          Alcotest.test_case "replay deterministic" `Quick
            test_engine_replay_deterministic;
        ] );
      ( "driver",
        [
          Alcotest.test_case "--break finds planted bugs" `Quick
            test_break_finds_planted_bugs;
          Alcotest.test_case "fixed components survive seeds" `Quick
            test_fixed_components_survive_break_seeds;
          Alcotest.test_case "parallel matches sequential" `Quick
            test_parallel_matches_sequential;
        ] );
      ( "geometry",
        [
          Alcotest.test_case "cache at Table IV" `Quick test_cache_table4;
          Alcotest.test_case "storep at Table IV" `Quick test_storep_table4;
        ] );
      ( "front cache",
        [
          Alcotest.test_case "matches reference model" `Quick
            test_fcache_capacities;
        ] );
      ( "models",
        [
          Pinned.test_case "vatb" (Harnesses.Vatb_h.harness ());
          Pinned.test_case "freelist" (Harnesses.Freelist_h.harness ());
          Pinned.test_case "pmop" (Harnesses.Pmop_h.harness ());
          Pinned.test_case "zipf" (Harnesses.Zipf_h.harness ());
        ] );
    ]
