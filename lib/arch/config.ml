(* Simulator parameters, mirroring Table IV of the paper.

   Latency convention: the 1-cycle issue cost of an instruction already
   covers an L1 cache hit and an L1 TLB hit (both are pipelined on the
   modeled Gainestown-class core); deeper levels charge their Table IV
   latencies as stall cycles on top. *)

type t = {
  (* branch predictor (Pentium-M class: gshare over 2-bit counters) *)
  bp_table_bits : int;
  bp_history_bits : int;
  branch_miss_penalty : int; (* 8 cycles *)
  (* TLBs *)
  l1_tlb_ways : int;
  l1_tlb_entries : int;
  l2_tlb_ways : int;
  l2_tlb_entries : int;
  l2_tlb_hit_latency : int; (* 7 *)
  page_walk_latency : int; (* 30 *)
  (* caches; line size 64 B *)
  line_shift : int;
  l1_ways : int;
  l1_sets : int; (* 64 sets * 8 ways * 64 B = 32 KiB *)
  l2_ways : int;
  l2_kib : int; (* 256 KiB *)
  l2_latency : int; (* 12 *)
  l3_ways : int;
  l3_kib : int; (* 2 MiB *)
  l3_latency : int; (* 40 *)
  (* memory *)
  dram_latency : int; (* 120 cycles (45 ns) *)
  nvm_latency : int; (* 240 cycles *)
  (* persistent-object translation hardware *)
  polb_entries : int; (* 32 *)
  polb_latency : int; (* exposed cost of a POLB hit; the 3-cycle lookup
     largely overlaps with address generation on the modeled core *)
  pow_latency : int; (* POT walk: one kernel-table access *)
  valb_entries : int; (* 32 *)
  valb_latency : int; (* default = POLB latency; swept in Fig. 14 *)
  vatb_node_latency : int; (* per B-tree node touched by the VAW *)
  storep_fsm_entries : int; (* 32 outstanding storeP *)
  (* Section IV's "keep relative opportunistically" optimization: the
     compiler keeps the relative form of a recently materialized pointer
     live, so storing it back into NVM needs no VALB translation.
     Disable for the ablation study. *)
  keep_relative_opt : bool;
  (* software-check cost model (SW version):
     instructions per determineX/determineY-style check, per ra2va
     software call (pool-table lookup) and per va2ra software call
     (range lookup), plus how many branches each executes. *)
  sw_check_instrs : int;
  sw_check_branches : int;
  sw_ra2va_instrs : int;
  sw_ra2va_loads : int;
  sw_va2ra_instrs : int;
  sw_va2ra_loads : int;
  (* buffered-persistency drain costs (epoch/lazy models): cycles to
     flush one dirty 64 B line to media and to retire the drain fence.
     The eager model never pays these — stores persist in place. *)
  flush_latency : int;
  fence_latency : int;
  (* core speed: false = the fast functional core (see Cpu) *)
  timing : bool;
}

let default =
  {
    bp_table_bits = 10;
    bp_history_bits = 8;
    branch_miss_penalty = 8;
    l1_tlb_ways = 4;
    l1_tlb_entries = 64;
    l2_tlb_ways = 4;
    l2_tlb_entries = 1536;
    l2_tlb_hit_latency = 7;
    page_walk_latency = 30;
    line_shift = 6;
    l1_ways = 8;
    l1_sets = 64;
    l2_ways = 8;
    l2_kib = 256;
    l2_latency = 12;
    l3_ways = 8;
    l3_kib = 2048;
    l3_latency = 40;
    dram_latency = 120;
    nvm_latency = 240;
    polb_entries = 32;
    polb_latency = 1;
    pow_latency = 40;
    valb_entries = 32;
    valb_latency = 3;
    vatb_node_latency = 40;
    storep_fsm_entries = 32;
    keep_relative_opt = true;
    sw_check_instrs = 4;
    sw_check_branches = 2;
    sw_ra2va_instrs = 10;
    sw_ra2va_loads = 2;
    sw_va2ra_instrs = 14;
    sw_va2ra_loads = 3;
    flush_latency = 40;
    fence_latency = 20;
    timing = true;
  }

(* Every field as (name, value), in declaration order. *)
let fields t =
  let i name v = (name, string_of_int v) and b name v = (name, string_of_bool v) in
  [
    i "bp_table_bits" t.bp_table_bits; i "bp_history_bits" t.bp_history_bits;
    i "branch_miss_penalty" t.branch_miss_penalty;
    i "l1_tlb_ways" t.l1_tlb_ways; i "l1_tlb_entries" t.l1_tlb_entries;
    i "l2_tlb_ways" t.l2_tlb_ways; i "l2_tlb_entries" t.l2_tlb_entries;
    i "l2_tlb_hit_latency" t.l2_tlb_hit_latency;
    i "page_walk_latency" t.page_walk_latency; i "line_shift" t.line_shift;
    i "l1_ways" t.l1_ways; i "l1_sets" t.l1_sets; i "l2_ways" t.l2_ways;
    i "l2_kib" t.l2_kib; i "l2_latency" t.l2_latency; i "l3_ways" t.l3_ways;
    i "l3_kib" t.l3_kib; i "l3_latency" t.l3_latency;
    i "dram_latency" t.dram_latency; i "nvm_latency" t.nvm_latency;
    i "polb_entries" t.polb_entries; i "polb_latency" t.polb_latency;
    i "pow_latency" t.pow_latency; i "valb_entries" t.valb_entries;
    i "valb_latency" t.valb_latency; i "vatb_node_latency" t.vatb_node_latency;
    i "storep_fsm_entries" t.storep_fsm_entries;
    b "keep_relative_opt" t.keep_relative_opt;
    i "sw_check_instrs" t.sw_check_instrs;
    i "sw_check_branches" t.sw_check_branches;
    i "sw_ra2va_instrs" t.sw_ra2va_instrs; i "sw_ra2va_loads" t.sw_ra2va_loads;
    i "sw_va2ra_instrs" t.sw_va2ra_instrs; i "sw_va2ra_loads" t.sw_va2ra_loads;
    i "flush_latency" t.flush_latency; i "fence_latency" t.fence_latency;
    b "timing" t.timing;
  ]

(* Field names are unique, so a field is unchanged exactly when its
   (name, value) pair is one of [default]'s. *)
let changes ?(extra = []) t =
  let defaults = fields default in
  List.filter (fun f -> not (List.mem f defaults)) (fields t) @ extra
  |> List.map (fun (name, v) -> " " ^ name ^ "=" ^ v)
  |> String.concat ""

let rows t =
  [
    ("ISA", "64-bit (simulated), Gainestown-class in-order interval model");
    ("CPU", "1 core, 64 B cache line");
    ( "Branch predictor",
      Fmt.str "gshare %d-bit, miss penalty %d cycles" t.bp_history_bits
        t.branch_miss_penalty );
    ( "L1 data TLB",
      Fmt.str "%d-way, %d entries, 1 cycle" t.l1_tlb_ways t.l1_tlb_entries );
    ( "L2 shared TLB",
      Fmt.str "%d-way, %d entries, %d cycles for hit, %d cycles for miss"
        t.l2_tlb_ways t.l2_tlb_entries t.l2_tlb_hit_latency
        t.page_walk_latency );
    ( "L1 cache",
      Fmt.str "%d-way, %d sets, pipelined hit" t.l1_ways t.l1_sets );
    ("L2 cache", Fmt.str "%d-way, %d KiB, %d cycles" t.l2_ways t.l2_kib t.l2_latency);
    ("L3 cache", Fmt.str "%d-way, %d KiB, %d cycles" t.l3_ways t.l3_kib t.l3_latency);
    ( "Memory",
      Fmt.str "%d cycles for DRAM, %d cycles for NVM" t.dram_latency
        t.nvm_latency );
    ( "POLB",
      Fmt.str "%d entries, %d cycles, POW %d cycles" t.polb_entries
        t.polb_latency t.pow_latency );
    ( "VALB",
      Fmt.str "%d entries, %d cycles, VAW %d cycles/node" t.valb_entries
        t.valb_latency t.vatb_node_latency );
    ("storeP FSM", Fmt.str "%d entries" t.storep_fsm_entries);
  ]
