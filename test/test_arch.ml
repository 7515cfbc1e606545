(* Tests for the timing model: caches, branch predictor, the VATB
   B-tree, VALB, storeP unit, cycle accounting and the Table II cost
   model. *)

module Layout = Nvml_simmem.Layout
module Mem = Nvml_simmem.Mem
module Cache = Nvml_arch.Cache
module Bp = Nvml_arch.Branch_predictor
module Btree = Nvml_arch.Range_btree
module Valb = Nvml_arch.Valb
module Storep = Nvml_arch.Storep_unit
module Cpu = Nvml_arch.Cpu
module Config = Nvml_arch.Config
module Hw_cost = Nvml_arch.Hw_cost

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- cache ----------------------------------------------------------- *)

let test_cache_hit_after_miss () =
  let c = Cache.create ~sets:4 ~ways:2 ~index_shift:6 in
  check_bool "first access misses" false (Cache.access c 0x1000);
  check_bool "second access hits" true (Cache.access c 0x1000);
  check_bool "same line hits" true (Cache.access c 0x103F);
  check_bool "next line misses" false (Cache.access c 0x1040)

let test_cache_lru_eviction () =
  let c = Cache.create ~sets:1 ~ways:2 ~index_shift:6 in
  ignore (Cache.access c 0x000);
  ignore (Cache.access c 0x040);
  ignore (Cache.access c 0x000); (* touch A: B becomes LRU *)
  ignore (Cache.access c 0x080); (* evicts B *)
  check_bool "A survives" true (Cache.probe c 0x000);
  check_bool "B evicted" false (Cache.probe c 0x040);
  check_bool "C present" true (Cache.probe c 0x080)

let test_cache_sets_independent () =
  let c = Cache.create ~sets:2 ~ways:1 ~index_shift:6 in
  ignore (Cache.access c 0x000); (* set 0 *)
  ignore (Cache.access c 0x040); (* set 1 *)
  check_bool "set 0 kept" true (Cache.probe c 0x000);
  check_bool "set 1 kept" true (Cache.probe c 0x040)

let test_cache_invalidate () =
  let c = Cache.create ~sets:1 ~ways:4 ~index_shift:0 in
  ignore (Cache.access c 7);
  Cache.invalidate c 7;
  check_bool "invalidated" false (Cache.probe c 7)

(* Recency order: a hit moves its line to the front, an invalidate
   frees its way for the next miss, and a zero-way cache is refused. *)
let test_cache_recency_order () =
  let c = Cache.create ~sets:1 ~ways:3 ~index_shift:0 in
  List.iter (fun b -> ignore (Cache.access c b)) [ 1; 2; 3; 1 ];
  Alcotest.(check (list int)) "most recent first" [ 1; 3; 2 ]
    (Cache.ways_of_set c 0);
  Cache.invalidate c 3;
  ignore (Cache.access c 4) (* fills the freed way: 2 stays *);
  Alcotest.(check (list int)) "refill keeps the LRU line" [ 4; 1; 2 ]
    (Cache.ways_of_set c 0);
  ignore (Cache.access c 5) (* full: evicts 2 *);
  Alcotest.(check (list int)) "full set evicts the LRU line" [ 5; 4; 1 ]
    (Cache.ways_of_set c 0);
  Alcotest.check_raises "zero ways"
    (Invalid_argument "Cache.create: ways must be positive") (fun () ->
      ignore (Cache.create ~sets:4 ~ways:0 ~index_shift:6))

(* A timed access, a coherence probe and a shootdown allocate nothing
   (a few words of slack absorb the boxed [Gc.minor_words] reads). *)
let test_cache_allocation_free () =
  let c = Cache.create ~sets:64 ~ways:8 ~index_shift:6 in
  let w0 = Gc.minor_words () in
  for i = 1 to 100_000 do
    let a = i * 4160 land 0xFFFFF in
    ignore (Cache.access c a);
    ignore (Cache.probe c (a + 64));
    if i land 7 = 0 then Cache.invalidate c a
  done;
  check_bool "under 64 minor words" true (Gc.minor_words () -. w0 < 64.)

let test_cache_of_size () =
  (* 256 KiB, 8-way, 64 B lines = 512 sets. *)
  let c = Cache.of_size ~kib:256 ~ways:8 ~line_shift:6 in
  ignore (Cache.access c 0);
  check_bool "accessible" true (Cache.probe c 0)

(* --- branch predictor --------------------------------------------------- *)

let test_bp_learns_bias () =
  let bp = Bp.create ~table_bits:10 ~history_bits:8 in
  (* A loop-like branch: always taken.  After warmup, no misses. *)
  for _ = 1 to 100 do
    ignore (Bp.branch bp ~pc:0x40 ~taken:true)
  done;
  Bp.reset_stats bp;
  for _ = 1 to 100 do
    ignore (Bp.branch bp ~pc:0x40 ~taken:true)
  done;
  check_int "steady-state misses" 0 (Bp.mispredictions bp)

let test_bp_random_hurts () =
  let bp = Bp.create ~table_bits:10 ~history_bits:8 in
  let rng = Random.State.make [| 7 |] in
  let misses = ref 0 in
  for _ = 1 to 2000 do
    if Bp.branch bp ~pc:0x40 ~taken:(Random.State.bool rng) then incr misses
  done;
  check_bool "random branches mispredict a lot" true (!misses > 400)

let test_bp_alternating_learnable () =
  (* A strict alternation is captured by global history. *)
  let bp = Bp.create ~table_bits:12 ~history_bits:8 in
  let taken = ref false in
  for _ = 1 to 500 do
    taken := not !taken;
    ignore (Bp.branch bp ~pc:0x80 ~taken:!taken)
  done;
  Bp.reset_stats bp;
  for _ = 1 to 500 do
    taken := not !taken;
    ignore (Bp.branch bp ~pc:0x80 ~taken:!taken)
  done;
  check_bool "alternation learned" true (Bp.miss_rate bp < 0.05)

(* --- range B-tree ---------------------------------------------------------- *)

let test_btree_basic () =
  let t = Btree.create () in
  Btree.insert t ~base:0x1000L ~size:0x1000L ~pool:1;
  Btree.insert t ~base:0x5000L ~size:0x2000L ~pool:2;
  (match Btree.lookup t 0x1800L with
  | Some (e, _) -> check_int "pool 1 found" 1 e.Btree.pool
  | None -> Alcotest.fail "missing range");
  (match Btree.lookup t 0x6FFFL with
  | Some (e, _) -> check_int "pool 2 found" 2 e.Btree.pool
  | None -> Alcotest.fail "missing range 2");
  check_bool "gap misses" true (Btree.lookup t 0x3000L = None);
  check_bool "below misses" true (Btree.lookup t 0x0L = None);
  check_bool "end is exclusive" true (Btree.lookup t 0x7000L = None)

let test_btree_many_and_remove () =
  let t = Btree.create () in
  for i = 0 to 199 do
    Btree.insert t
      ~base:(Int64.of_int (i * 0x10000))
      ~size:0x8000L ~pool:i
  done;
  Btree.check_invariants t;
  check_int "count" 200 (Btree.length t);
  check_bool "height reasonable" true (Btree.height t <= 4);
  (* Remove the even pools. *)
  for i = 0 to 199 do
    if i mod 2 = 0 then
      check_bool "removed" true (Btree.remove t (Int64.of_int (i * 0x10000)))
  done;
  Btree.check_invariants t;
  check_int "count after removal" 100 (Btree.length t);
  for i = 0 to 199 do
    let found = Btree.lookup t (Int64.of_int ((i * 0x10000) + 0x100)) <> None in
    check_bool (Fmt.str "pool %d presence" i) (i mod 2 = 1) found
  done

let test_btree_lookup_reports_walk () =
  let t = Btree.create () in
  for i = 0 to 499 do
    Btree.insert t ~base:(Int64.of_int (i * 0x10000)) ~size:0x8000L ~pool:i
  done;
  match Btree.lookup t 0x100L with
  | Some (_, visited) ->
      check_bool "walk length within height" true
        (visited >= 1 && visited <= Btree.height t)
  | None -> Alcotest.fail "expected hit"

(* --- VALB -------------------------------------------------------------------- *)

let test_valb_hit_miss () =
  let v = Valb.create ~entries:2 in
  check_bool "cold miss" true (Valb.lookup v 0x1000L = None);
  Valb.insert v ~base:0x1000L ~size:0x1000L ~pool:3;
  check_bool "hit in range" true (Valb.lookup v 0x1800L = Some 3);
  check_bool "miss out of range" true (Valb.lookup v 0x2000L = None)

let test_valb_lru_and_shootdown () =
  let v = Valb.create ~entries:2 in
  Valb.insert v ~base:0x1000L ~size:0x100L ~pool:1;
  Valb.insert v ~base:0x2000L ~size:0x100L ~pool:2;
  ignore (Valb.lookup v 0x1000L); (* touch pool 1 *)
  Valb.insert v ~base:0x3000L ~size:0x100L ~pool:3; (* evicts pool 2 *)
  check_bool "pool 1 kept" true (Valb.lookup v 0x1000L = Some 1);
  check_bool "pool 2 evicted" true (Valb.lookup v 0x2000L = None);
  Valb.invalidate_pool v 1;
  check_bool "pool 1 shot down" true (Valb.lookup v 0x1000L = None)

(* --- storeP unit --------------------------------------------------------------- *)

let test_storep_no_stall_when_free () =
  let u = Storep.create ~entries:4 in
  check_int "no stall" 0 (Storep.issue u ~now:0 ~latency:10);
  check_int "no stall 2" 0 (Storep.issue u ~now:1 ~latency:10)

let test_storep_stalls_when_full () =
  let u = Storep.create ~entries:2 in
  ignore (Storep.issue u ~now:0 ~latency:10);
  ignore (Storep.issue u ~now:0 ~latency:10);
  let stall = Storep.issue u ~now:0 ~latency:10 in
  check_int "third storeP waits for a slot" 10 stall;
  check_bool "stall recorded" true (Storep.stall_cycles u >= 10)

let test_storep_frees_after_latency () =
  let u = Storep.create ~entries:1 in
  ignore (Storep.issue u ~now:0 ~latency:5);
  check_int "free again at t=5" 0 (Storep.issue u ~now:5 ~latency:5)

(* The unit keeps only completion times above the last issue's cycle,
   so an issue may not go back in time until a flush; a unit with no
   entries is refused at creation. *)
let test_storep_rejects () =
  Alcotest.check_raises "zero entries"
    (Invalid_argument "Storep_unit.create: entries must be positive")
    (fun () -> ignore (Storep.create ~entries:0));
  let u = Storep.create ~entries:2 in
  ignore (Storep.issue u ~now:10 ~latency:5);
  check_int "same cycle again" 0 (Storep.issue u ~now:10 ~latency:5);
  Alcotest.check_raises "now went backwards"
    (Invalid_argument "Storep_unit.issue: now is below the previous issue's")
    (fun () -> ignore (Storep.issue u ~now:9 ~latency:5));
  Storep.flush u;
  check_int "any cycle after a flush" 0 (Storep.issue u ~now:0 ~latency:5);
  check_int "counters survive the flush" 3 (Storep.issued u)

(* --- CPU accounting --------------------------------------------------------------- *)

let make_cpu () =
  let mem = Mem.create () in
  let cpu = Cpu.create Config.default mem in
  (mem, cpu)

let test_cpu_instr_cycles () =
  let _, cpu = make_cpu () in
  Cpu.instr cpu 10;
  check_int "1 cycle per instruction" 10 (Cpu.cycles cpu)

let test_cpu_nvm_slower_than_dram () =
  let mem, cpu = make_cpu () in
  let d = Mem.map_fresh mem Layout.Dram 4096 in
  let n = Mem.map_fresh mem Layout.Nvm 4096 in
  (* Cold miss each: DRAM access then NVM access, distinct cache sets. *)
  let c0 = Cpu.cycles cpu in
  Cpu.load cpu d;
  let dram_cost = Cpu.cycles cpu - c0 in
  let c1 = Cpu.cycles cpu in
  Cpu.load cpu n;
  let nvm_cost = Cpu.cycles cpu - c1 in
  check_bool "cold NVM load slower than cold DRAM load" true
    (nvm_cost > dram_cost);
  (* Warm hits cost the same (1 cycle). *)
  let c2 = Cpu.cycles cpu in
  Cpu.load cpu d;
  Cpu.load cpu n;
  check_int "both warm hits pipelined" 2 (Cpu.cycles cpu - c2)

let test_cpu_polb_translate () =
  let _, cpu = make_cpu () in
  let c0 = Cpu.cycles cpu in
  Cpu.polb_translate cpu ~pool:5;
  let miss_cost = Cpu.cycles cpu - c0 in
  let c1 = Cpu.cycles cpu in
  Cpu.polb_translate cpu ~pool:5;
  let hit_cost = Cpu.cycles cpu - c1 in
  check_bool "POLB miss costs the POW walk" true (miss_cost > hit_cost);
  check_int "POLB hit costs its latency" Config.default.Config.polb_latency
    hit_cost

(* A storeP of the virtual pointer [va] into the NVM cell at [va]: one
   va2ra through the VALB. *)
let store_p_valb mem cpu va =
  Cpu.xop_reset cpu;
  Cpu.xop_push_valb cpu ~va;
  Cpu.store_p_buffered cpu ~dst_va:va ~dst_pa:(Mem.translate_pa_exn mem va)

let test_cpu_storep_valb_walk () =
  let mem, cpu = make_cpu () in
  let dst = Mem.map_fresh mem Layout.Nvm 4096 in
  Cpu.map_pool cpu ~base:dst ~size:4096 ~pool:9;
  store_p_valb mem cpu dst;
  let s = Cpu.snapshot cpu in
  check_int "one storeP" 1 s.Cpu.storeps;
  check_int "one VALB access" 1 s.Cpu.valb_accesses;
  check_int "one VALB miss (cold)" 1 s.Cpu.valb_misses;
  check_int "one VAW walk" 1 s.Cpu.vaw_walks;
  (* Second one hits the VALB. *)
  store_p_valb mem cpu dst;
  let s2 = Cpu.snapshot cpu in
  check_int "second VALB access hits" 1 s2.Cpu.valb_misses

let test_cpu_unmap_shootdown () =
  let mem, cpu = make_cpu () in
  let base = Mem.map_fresh mem Layout.Nvm 4096 in
  Cpu.map_pool cpu ~base ~size:4096 ~pool:4;
  store_p_valb mem cpu base;
  Cpu.unmap_pool cpu ~base ~pool:4;
  store_p_valb mem cpu base;
  let s = Cpu.snapshot cpu in
  check_int "VALB misses twice after shootdown" 2 s.Cpu.valb_misses

let test_cpu_branch_counts () =
  let _, cpu = make_cpu () in
  for _ = 1 to 50 do
    Cpu.branch cpu ~pc:0x10 ~taken:true
  done;
  let s = Cpu.snapshot cpu in
  check_int "branches counted" 50 s.Cpu.branches;
  check_bool "few mispredicts on a biased branch" true
    (s.Cpu.branch_mispredicts <= 2)

let test_cpu_snapshot_diff () =
  let mem, cpu = make_cpu () in
  let line = Mem.map_fresh mem Layout.Dram 4096 in
  Cpu.instr cpu 5;
  Cpu.load cpu line (* cold: misses L1 *);
  let a = Cpu.snapshot cpu in
  Cpu.instr cpu 7;
  Cpu.branch cpu ~pc:4 ~taken:true;
  Cpu.load cpu line;
  Cpu.load cpu line;
  let b = Cpu.snapshot cpu in
  let d = Cpu.diff_snapshot b a in
  check_int "instr delta (7 + branch + 2 loads)" 10 d.Cpu.instrs;
  check_int "branch delta" 1 d.Cpu.branches;
  (* A phase's hit rate counts only its own accesses. *)
  check_int "L1 accesses delta" 2 d.Cpu.l1_accesses;
  Alcotest.(check (float 0.)) "whole run: 2 of 3 L1 hits" (2. /. 3.)
    b.Cpu.l1_hit_rate;
  Alcotest.(check (float 0.)) "phase: 2 of 2 L1 hits" 1.0 d.Cpu.l1_hit_rate

let test_cpu_tlb_hierarchy () =
  let mem, cpu = make_cpu () in
  (* Touch more pages than the 64-entry L1 TLB holds: later re-touches
     must hit the L2 TLB (7-cycle stalls), not free L1 hits. *)
  let base = Mem.map_fresh mem Layout.Dram (256 * 4096) in
  for p = 0 to 255 do
    Cpu.load cpu (Int64.add base (Int64.of_int (p * 4096)))
  done;
  let c0 = Cpu.cycles cpu in
  Cpu.load cpu base;
  (* page 0 was evicted from the 64-entry L1 TLB by pages 64..255 *)
  let cost = Cpu.cycles cpu - c0 in
  check_bool "re-touch pays an L2 TLB or walk stall" true (cost > 1)

let test_non_pow2_sets () =
  (* The 1536-entry L2 TLB has 384 sets — modulo indexing must work. *)
  let c = Cache.create ~sets:384 ~ways:4 ~index_shift:12 in
  for i = 0 to 999 do
    ignore (Cache.access c (i * 4096))
  done;
  check_int "all accesses accounted" 1000 (Cache.accesses c);
  check_bool "some hits after wrap" true (Cache.probe c (999 * 4096))

(* --- Table II cost model ------------------------------------------------------------ *)

let test_hw_cost_table2 () =
  let structures = Hw_cost.of_config Config.default in
  check_int "three structures" 3 (List.length structures);
  check_int "total bytes" 1280 (Hw_cost.total_bytes_all structures);
  let total_area = Hw_cost.total_area_all structures in
  check_bool "total area close to 0.0479 mm^2" true
    (abs_float (total_area -. 0.0479) < 0.002);
  let fraction = Hw_cost.fraction_of_die structures in
  check_bool "fraction of die ~0.059%" true
    (abs_float ((fraction *. 100.) -. 0.059) < 0.005)

let test_hw_cost_per_structure () =
  List.iter
    (fun s ->
      let expected_bytes =
        match s.Hw_cost.name with "FSM" -> 512 | _ -> 384
      in
      check_int (s.Hw_cost.name ^ " bytes") expected_bytes
        (Hw_cost.total_bytes s))
    (Hw_cost.of_config Config.default)

let () =
  Alcotest.run "arch"
    [
      ( "cache",
        [
          Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "sets independent" `Quick
            test_cache_sets_independent;
          Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
          Alcotest.test_case "recency order" `Quick test_cache_recency_order;
          Alcotest.test_case "allocation-free" `Quick
            test_cache_allocation_free;
          Alcotest.test_case "of_size" `Quick test_cache_of_size;
        ] );
      ( "branch-predictor",
        [
          Alcotest.test_case "learns bias" `Quick test_bp_learns_bias;
          Alcotest.test_case "random hurts" `Quick test_bp_random_hurts;
          Alcotest.test_case "alternation" `Quick test_bp_alternating_learnable;
        ] );
      ( "range-btree",
        [
          Alcotest.test_case "basics" `Quick test_btree_basic;
          Alcotest.test_case "many + remove" `Quick test_btree_many_and_remove;
          Alcotest.test_case "walk length" `Quick
            test_btree_lookup_reports_walk;
        ] );
      ( "valb",
        [
          Alcotest.test_case "hit/miss" `Quick test_valb_hit_miss;
          Alcotest.test_case "LRU + shootdown" `Quick
            test_valb_lru_and_shootdown;
        ] );
      ( "storep-unit",
        [
          Alcotest.test_case "no stall when free" `Quick
            test_storep_no_stall_when_free;
          Alcotest.test_case "stalls when full" `Quick
            test_storep_stalls_when_full;
          Alcotest.test_case "frees after latency" `Quick
            test_storep_frees_after_latency;
          Alcotest.test_case "rejects" `Quick test_storep_rejects;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "instr cycles" `Quick test_cpu_instr_cycles;
          Alcotest.test_case "NVM slower than DRAM" `Quick
            test_cpu_nvm_slower_than_dram;
          Alcotest.test_case "POLB translate" `Quick test_cpu_polb_translate;
          Alcotest.test_case "storeP + VALB walk" `Quick
            test_cpu_storep_valb_walk;
          Alcotest.test_case "unmap shootdown" `Quick test_cpu_unmap_shootdown;
          Alcotest.test_case "branch counts" `Quick test_cpu_branch_counts;
          Alcotest.test_case "snapshot diff" `Quick test_cpu_snapshot_diff;
          Alcotest.test_case "TLB hierarchy" `Quick test_cpu_tlb_hierarchy;
          Alcotest.test_case "non-pow2 sets" `Quick test_non_pow2_sets;
        ] );
      ( "hw-cost",
        [
          Alcotest.test_case "Table II totals" `Quick test_hw_cost_table2;
          Alcotest.test_case "per structure" `Quick test_hw_cost_per_structure;
        ] );
    ]
