(* The timing model: an interval-style in-order core in the spirit of
   the paper's Snipersim setup.  The runtime narrates execution to this
   module as a stream of micro-events (instructions, branches, memory
   accesses, translations, storeP issues); the model accumulates cycles
   and statistics.

   Cycle accounting: every instruction costs one issue cycle, which
   covers an L1-cache and L1-TLB hit; deeper levels, branch
   mispredictions, POLB/VALB latencies on the address-generation path
   and storeP structural stalls add stall cycles on top.

   Two execution speeds behind the same narration API, chosen by the
   configuration's [timing] field:

   - [timing = true] (default): the cycle-accurate mode above.  Every
     entry point is bit-for-bit unchanged from the pre-split code, so
     pinned profile outputs stay byte-identical.
   - [timing = false]: the fast functional mode.  Each µ-event retires
     in its 1-cycle issue slot and no microarchitectural structure is
     touched — no branch predictor, TLBs, caches, POLB/VALB/VATB or
     storeP FSM — so [cycles = instrs] and every stall source reads 0.
     Event counts (instructions, loads, stores, storePs, branches,
     DRAM/NVM accesses) are narration-derived and stay identical to the
     cycle-accurate mode; only timing-state-dependent statistics
     (mispredictions, hit rates, POW/VAW walks, stalls) collapse.
     Functional behaviour lives outside this module entirely, so the
     verification engines keep every pointer-format check, translation
     and crash-point/media hook while skipping the timing simulation. *)

module Mem = Nvml_simmem.Mem
module Layout = Nvml_simmem.Layout
module Physmem = Nvml_simmem.Physmem
module Telemetry = Nvml_telemetry.Telemetry

(* Depth of each VAW walk into the VATB B-tree (nodes visited). *)
let vatb_depth = Telemetry.latency "vatb.walk_depth"

(* Capacity of the reusable storeP operand buffer.  A storeP narrates
   at most one Rd and one Rs conversion; the slack tolerates synthetic
   multi-operand tests. *)
let xop_buffer_capacity = 8

type t = {
  cfg : Config.t;
  mem : Mem.t;
  timing : bool; (* false = fast functional mode: skip all timing state *)
  bp : Branch_predictor.t;
  l1_tlb : Cache.t;
  l2_tlb : Cache.t;
  l1 : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  polb : Cache.t; (* keyed by pool id *)
  valb : Valb.t;
  vatb : Range_btree.t; (* kernel VATB, walked by the VAW on VALB miss *)
  storep_unit : Storep_unit.t;
  (* Buffered persistency: storeP retirements skip the persist-FSM
     occupancy stall (durability moves to the epoch drain), paying only
     their translation latency.  False = eager, the pinned default. *)
  mutable relaxed_persistency : bool;
  (* Reusable storeP operand buffer: flat preallocated arrays instead of
     a per-storeP list.  [xop_pool.(i) >= 0] is a POLB op on that pool;
     [xop_pool.(i) < 0] is a VALB op on [xop_va.(i)]. *)
  xop_pool : int array;
  xop_va : int64 array;
  mutable xop_len : int;
  mutable cycles : int;
  mutable instrs : int;
  mutable loads : int;
  mutable stores : int;
  mutable storeps : int;
  mutable branches : int;
  mutable dram_accesses : int;
  mutable nvm_accesses : int;
  mutable pow_walks : int;
  mutable vaw_walks : int;
  mutable vaw_nodes : int;
  (* Cycle attribution: every cycle beyond the one-per-instruction base
     is charged to exactly one stall source, so
     [cycles = instrs + st_branch + st_tlb + st_cache + st_mem +
      st_xlate + st_storep] holds at all times.  Plain integer adds on
     paths that already pay a cache simulation — always on. *)
  mutable st_branch : int;
  mutable st_tlb : int;
  mutable st_cache : int; (* L2/L3 hit latencies *)
  mutable st_mem : int; (* DRAM/NVM access latencies *)
  mutable st_xlate : int; (* exposed POLB latency on the AGU path *)
  mutable st_storep : int; (* storeP structural stalls *)
  (* Multi-core hooks, both no-ops on a single-core machine.  [on_step]
     fires once per narrated µ-event before the event's accounting — the
     scheduler's interleave point; [on_store] fires after a completed
     store with the packed physical address — the coherence broadcast
     point.  A no-op closure per µ-event is the entire single-core cost,
     so pinned single-core outputs stay byte-identical. *)
  mutable on_step : unit -> unit;
  mutable on_store : int -> unit;
}

let no_step () = ()
let no_store (_ : int) = ()

let create (cfg : Config.t) mem =
  let timing = cfg.timing in
  (* Fast functional mode never exercises the timing components, but the
     telemetry accessors still publish them — so build degenerate
     one-entry stand-ins instead of the config-sized arrays.  The
     verification engines construct a fresh machine per crash point /
     fuzz case; skipping the L2/L3 tag arrays (tens of KWords each)
     keeps that construction off the major heap, as the translation
     cache's shared empty blocks keep [Mem.create] off it (Vspace). *)
  {
    cfg;
    mem;
    timing;
    bp =
      (if timing then Branch_predictor.of_config cfg
       else Branch_predictor.create ~table_bits:0 ~history_bits:0);
    l1_tlb =
      (if timing then
         Cache.create
           ~sets:(cfg.l1_tlb_entries / cfg.l1_tlb_ways)
           ~ways:cfg.l1_tlb_ways ~index_shift:Layout.page_shift
       else Cache.create ~sets:1 ~ways:1 ~index_shift:Layout.page_shift);
    l2_tlb =
      (if timing then
         Cache.create
           ~sets:(cfg.l2_tlb_entries / cfg.l2_tlb_ways)
           ~ways:cfg.l2_tlb_ways ~index_shift:Layout.page_shift
       else Cache.create ~sets:1 ~ways:1 ~index_shift:Layout.page_shift);
    l1 =
      (if timing then
         Cache.create ~sets:cfg.l1_sets ~ways:cfg.l1_ways
           ~index_shift:cfg.line_shift
       else Cache.create ~sets:1 ~ways:1 ~index_shift:cfg.line_shift);
    l2 =
      (if timing then
         Cache.of_size ~kib:cfg.l2_kib ~ways:cfg.l2_ways
           ~line_shift:cfg.line_shift
       else Cache.create ~sets:1 ~ways:1 ~index_shift:cfg.line_shift);
    l3 =
      (if timing then
         Cache.of_size ~kib:cfg.l3_kib ~ways:cfg.l3_ways
           ~line_shift:cfg.line_shift
       else Cache.create ~sets:1 ~ways:1 ~index_shift:cfg.line_shift);
    polb =
      (if timing then Cache.create ~sets:1 ~ways:cfg.polb_entries ~index_shift:0
       else Cache.create ~sets:1 ~ways:1 ~index_shift:0);
    valb = Valb.create ~entries:(if timing then cfg.valb_entries else 1);
    vatb = Range_btree.create ();
    storep_unit =
      Storep_unit.create
        ~entries:(if timing then cfg.storep_fsm_entries else 1);
    relaxed_persistency = false;
    xop_pool = Array.make xop_buffer_capacity (-1);
    xop_va = Array.make xop_buffer_capacity 0L;
    xop_len = 0;
    cycles = 0;
    instrs = 0;
    loads = 0;
    stores = 0;
    storeps = 0;
    branches = 0;
    dram_accesses = 0;
    nvm_accesses = 0;
    pow_walks = 0;
    vaw_walks = 0;
    vaw_nodes = 0;
    st_branch = 0;
    st_tlb = 0;
    st_cache = 0;
    st_mem = 0;
    st_xlate = 0;
    st_storep = 0;
    on_step = no_step;
    on_store = no_store;
  }

(* A sibling core of [t]: private front end (branch predictor, TLBs,
   L1, storeP unit, operand buffer) and private counters, but the
   *shared* outer hierarchy — L2, L3, POLB, VALB and the kernel VATB
   are the same physical structures, so siblings contend for them. *)
let create_sibling (t : t) =
  {
    (create t.cfg t.mem) with
    l2 = t.l2;
    l3 = t.l3;
    polb = t.polb;
    valb = t.valb;
    vatb = t.vatb;
    relaxed_persistency = t.relaxed_persistency;
  }

let set_relaxed_persistency t v = t.relaxed_persistency <- v

let set_hooks t ~on_step ~on_store =
  t.on_step <- on_step;
  t.on_store <- on_store

let clear_hooks t =
  t.on_step <- no_step;
  t.on_store <- no_store

(* Only the running core can be inside [f], and it never yields there. *)
let atomically t f =
  let on_step = t.on_step in
  t.on_step <- no_step;
  Fun.protect ~finally:(fun () -> t.on_step <- on_step) f

(* Coherence: another core stored to [pa]; drop this core's private
   copy of the line.  [true] when the line was actually present.  Only
   the private L1 is touched — L2/L3 are shared between siblings — and
   [probe] (not [access]) keeps the hit/miss statistics clean. *)
let invalidate_line t pa =
  t.timing
  && Cache.probe t.l1 pa
  &&
  (Cache.invalidate t.l1 pa;
   true)

(* --- plain instructions and branches --------------------------------- *)

let instr t n =
  t.on_step ();
  t.instrs <- t.instrs + n;
  t.cycles <- t.cycles + n

(* Stall charged by the buffered-persistency drain engine (flush and
   fence µ-events).  Deliberately no [on_step]: a drain is atomic with
   respect to the multi-core scheduler — no other core's stores can
   interleave with a line flush.  Fast mode counts the events at the
   [Persist] layer instead and charges nothing here, preserving the
   cycles = instrs invariant. *)
let persist_stall t n =
  if t.timing then begin
    t.st_mem <- t.st_mem + n;
    t.cycles <- t.cycles + n
  end

let branch t ~pc ~taken =
  t.on_step ();
  t.instrs <- t.instrs + 1;
  t.branches <- t.branches + 1;
  if t.timing then begin
    let miss = Branch_predictor.branch t.bp ~pc ~taken in
    let penalty = if miss then t.cfg.branch_miss_penalty else 0 in
    t.st_branch <- t.st_branch + penalty;
    t.cycles <- t.cycles + 1 + penalty
  end
  else t.cycles <- t.cycles + 1

(* --- memory hierarchy -------------------------------------------------- *)

let tlb_stall t va =
  let stall =
    if Cache.access t.l1_tlb (Int64.to_int va) then 0
    else if Cache.access t.l2_tlb (Int64.to_int va) then
      t.cfg.l2_tlb_hit_latency
    else t.cfg.page_walk_latency
  in
  t.st_tlb <- t.st_tlb + stall;
  stall

let cache_stall t pa ~miss_latency =
  if Cache.access t.l1 pa then 0
  else if Cache.access t.l2 pa then begin
    t.st_cache <- t.st_cache + t.cfg.l2_latency;
    t.cfg.l2_latency
  end
  else if Cache.access t.l3 pa then begin
    t.st_cache <- t.st_cache + t.cfg.l3_latency;
    t.cfg.l3_latency
  end
  else begin
    t.st_mem <- t.st_mem + miss_latency;
    miss_latency
  end

(* Timing for one data access whose translation the caller already
   performed: [pa] is the packed physical address from
   [Mem.translate_pa].  Allocation-free.

   [store] matters only under a relaxed persistency model: an NVM store
   that misses the hierarchy retires at the memory controller's write
   buffer (DRAM-class latency) instead of waiting for media — the media
   write is deferred to the epoch drain, which bills it as flush
   µ-events.  Loads, and every access under the eager model, pay the
   unchanged miss latency. *)
let data_access_pa_k t ~va ~pa ~store =
  let region =
    if pa lsr Layout.page_shift >= Layout.nvm_phys_frame_base then Layout.Nvm
    else Layout.Dram
  in
  (match region with
  | Layout.Dram -> t.dram_accesses <- t.dram_accesses + 1
  | Layout.Nvm -> t.nvm_accesses <- t.nvm_accesses + 1);
  if t.timing then begin
    let miss_latency =
      match region with
      | Layout.Dram -> t.cfg.dram_latency
      | Layout.Nvm ->
          if store && t.relaxed_persistency then t.cfg.dram_latency
          else t.cfg.nvm_latency
    in
    let stall = tlb_stall t va + cache_stall t pa ~miss_latency in
    t.cycles <- t.cycles + 1 + stall
  end
  else t.cycles <- t.cycles + 1

let data_access_pa t ~va ~pa = data_access_pa_k t ~va ~pa ~store:false

let data_access t va =
  data_access_pa t ~va ~pa:(Mem.translate_pa_exn t.mem va)

let load t va =
  t.on_step ();
  t.instrs <- t.instrs + 1;
  t.loads <- t.loads + 1;
  data_access t va

let store t va =
  t.on_step ();
  t.instrs <- t.instrs + 1;
  t.stores <- t.stores + 1;
  let pa = Mem.translate_pa_exn t.mem va in
  data_access_pa_k t ~va ~pa ~store:true;
  t.on_store pa

let load_pa t ~va ~pa =
  t.on_step ();
  t.instrs <- t.instrs + 1;
  t.loads <- t.loads + 1;
  data_access_pa t ~va ~pa

let store_pa t ~va ~pa =
  t.on_step ();
  t.instrs <- t.instrs + 1;
  t.stores <- t.stores + 1;
  data_access_pa_k t ~va ~pa ~store:true;
  t.on_store pa

(* --- persistent-object translation hardware ----------------------------- *)

(* POLB lookup (ra2va): returns the latency it contributes.  On a miss
   the POW performs one POT access in kernel memory. *)
let polb_latency t ~pool =
  if Cache.access t.polb pool then t.cfg.polb_latency
  else begin
    t.pow_walks <- t.pow_walks + 1;
    t.cfg.polb_latency + t.cfg.pow_latency
  end

(* A POLB translation on the address-generation path of a load/store
   whose address register holds a relative pointer: the latency is
   exposed. *)
let polb_translate t ~pool =
  if t.timing then begin
    let lat = polb_latency t ~pool in
    t.st_xlate <- t.st_xlate + lat;
    t.cycles <- t.cycles + lat
  end

(* VALB lookup (va2ra): on a miss the VAW walks the VATB B-tree, one
   kernel access per node visited, then refills the VALB. *)
let valb_latency t ~va =
  if not t.timing then 0
  else
  match Valb.lookup t.valb va with
  | Some _ -> t.cfg.valb_latency
  | None ->
      t.vaw_walks <- t.vaw_walks + 1;
      let walk =
        match Range_btree.lookup t.vatb va with
        | Some (e, visited) ->
            Valb.insert t.valb ~base:e.Range_btree.base ~size:e.size
              ~pool:e.pool;
            visited
        | None -> Range_btree.height t.vatb (* walked to a leaf, no range *)
      in
      Telemetry.record vatb_depth walk;
      t.vaw_nodes <- t.vaw_nodes + walk;
      t.cfg.valb_latency + (walk * t.cfg.vatb_node_latency)

(* storeP: a store of a pointer value.  The narration layer pushes the
   address conversions the instruction's two operands require into a
   reusable buffer (at most Rd + Rs): [xop_push_polb] for an ra2va
   through the POLB (Rd in relative format, or a relative Rs destined
   for a DRAM cell) and [xop_push_valb] for a va2ra through the VALB (a
   virtual Rs destined for an NVM cell).  [store_p_buffered] retires the
   store and drains the buffer: translations proceed concurrently inside
   the FSM entry, folded in push order; only buffer-full conditions
   stall the core.  [dst_va]/[dst_pa] are the resolved destination. *)

let xop_reset t = t.xop_len <- 0

let xop_push_polb t ~pool =
  t.xop_pool.(t.xop_len) <- pool;
  t.xop_len <- t.xop_len + 1

let xop_push_valb t ~va =
  t.xop_pool.(t.xop_len) <- -1;
  t.xop_va.(t.xop_len) <- va;
  t.xop_len <- t.xop_len + 1

let store_p_buffered t ~dst_va ~dst_pa =
  t.on_step ();
  t.instrs <- t.instrs + 1;
  t.storeps <- t.storeps + 1;
  if t.timing then begin
    let lat = ref 0 in
    for i = 0 to t.xop_len - 1 do
      let pool = Array.unsafe_get t.xop_pool i in
      let l =
        if pool >= 0 then polb_latency t ~pool
        else valb_latency t ~va:(Array.unsafe_get t.xop_va i)
      in
      if l > !lat then lat := l
    done;
    if t.relaxed_persistency then begin
      (* Buffered persistency: the store still resolves its pointer
         formats (exposed translation latency), but retires without
         occupying the persist FSM — durability is the drain's job. *)
      t.st_xlate <- t.st_xlate + !lat;
      t.cycles <- t.cycles + !lat
    end
    else begin
      let stall =
        Storep_unit.issue t.storep_unit ~now:t.cycles ~latency:(1 + !lat)
      in
      t.st_storep <- t.st_storep + stall;
      t.cycles <- t.cycles + stall
    end
  end;
  t.xop_len <- 0;
  t.stores <- t.stores + 1;
  data_access_pa_k t ~va:dst_va ~pa:dst_pa ~store:true;
  t.on_store dst_pa

(* --- kernel-table maintenance ------------------------------------------- *)

(* Both kernel-table hooks only feed timing state (the VAW walk and the
   lookaside shootdowns), so fast mode skips them entirely. *)
let map_pool t ~base ~size ~pool =
  if t.timing then
    Range_btree.insert t.vatb ~base ~size:(Int64.of_int size) ~pool

let unmap_pool t ~base ~pool =
  if t.timing then begin
    ignore (Range_btree.remove t.vatb base);
    Valb.invalidate_pool t.valb pool;
    Cache.invalidate t.polb pool
  end

(* Volatile microarchitectural state vanishes on crash/restart. *)
let flush_volatile t =
  Cache.flush t.l1_tlb;
  Cache.flush t.l2_tlb;
  Cache.flush t.l1;
  Cache.flush t.l2;
  Cache.flush t.l3;
  Cache.flush t.polb;
  Valb.flush t.valb;
  Storep_unit.flush t.storep_unit

(* --- statistics ----------------------------------------------------------- *)

type snapshot = {
  cycles : int;
  instrs : int;
  loads : int;
  stores : int;
  storeps : int;
  mem_accesses : int;
  branches : int;
  branch_mispredicts : int;
  polb_accesses : int;
  polb_misses : int;
  valb_accesses : int;
  valb_misses : int;
  pow_walks : int;
  vaw_walks : int;
  vaw_nodes : int;
  dram_accesses : int;
  nvm_accesses : int;
  l1_hits : int;
  l1_accesses : int;
  l2_hits : int;
  l2_accesses : int;
  l3_hits : int;
  l3_accesses : int;
  l1_hit_rate : float;
  l2_hit_rate : float;
  l3_hit_rate : float;
  storep_stall_cycles : int;
}

let rate hits accesses =
  if accesses = 0 then 0.0 else float_of_int hits /. float_of_int accesses

let snapshot (t : t) : snapshot =
  {
    cycles = t.cycles;
    instrs = t.instrs;
    loads = t.loads;
    stores = t.stores;
    storeps = t.storeps;
    mem_accesses = t.loads + t.stores;
    branches = t.branches;
    branch_mispredicts = Branch_predictor.mispredictions t.bp;
    polb_accesses = Cache.accesses t.polb;
    polb_misses = Cache.misses t.polb;
    valb_accesses = Valb.accesses t.valb;
    valb_misses = Valb.misses t.valb;
    pow_walks = t.pow_walks;
    vaw_walks = t.vaw_walks;
    vaw_nodes = t.vaw_nodes;
    dram_accesses = t.dram_accesses;
    nvm_accesses = t.nvm_accesses;
    l1_hits = Cache.accesses t.l1 - Cache.misses t.l1;
    l1_accesses = Cache.accesses t.l1;
    l2_hits = Cache.accesses t.l2 - Cache.misses t.l2;
    l2_accesses = Cache.accesses t.l2;
    l3_hits = Cache.accesses t.l3 - Cache.misses t.l3;
    l3_accesses = Cache.accesses t.l3;
    l1_hit_rate = Cache.hit_rate t.l1;
    l2_hit_rate = Cache.hit_rate t.l2;
    l3_hit_rate = Cache.hit_rate t.l3;
    storep_stall_cycles = Storep_unit.stall_cycles t.storep_unit;
  }

let cycles (t : t) = t.cycles

(* Where the cycles went.  [base] is one cycle per instruction; the
   stall fields partition everything above it, so
   [base + branch + tlb + cache + mem + xlate + storep = cycles]. *)
type attribution = {
  base : int;
  branch : int;
  tlb : int;
  cache : int;
  mem : int;
  xlate : int;
  storep : int;
}

let attribution (t : t) : attribution =
  {
    base = t.instrs;
    branch = t.st_branch;
    tlb = t.st_tlb;
    cache = t.st_cache;
    mem = t.st_mem;
    xlate = t.st_xlate;
    storep = t.st_storep;
  }

let attribution_total (a : attribution) =
  a.base + a.branch + a.tlb + a.cache + a.mem + a.xlate + a.storep

let diff_attribution (after : attribution) (before : attribution) =
  {
    base = after.base - before.base;
    branch = after.branch - before.branch;
    tlb = after.tlb - before.tlb;
    cache = after.cache - before.cache;
    mem = after.mem - before.mem;
    xlate = after.xlate - before.xlate;
    storep = after.storep - before.storep;
  }

(* Component accessors for telemetry publication. *)
let caches (t : t) =
  [
    ("l1_tlb", t.l1_tlb);
    ("l2_tlb", t.l2_tlb);
    ("l1", t.l1);
    ("l2", t.l2);
    ("l3", t.l3);
    ("polb", t.polb);
  ]

let valb (t : t) = t.valb
let storep (t : t) = t.storep_unit

let diff_snapshot (after : snapshot) (before : snapshot) =
  {
    cycles = after.cycles - before.cycles;
    instrs = after.instrs - before.instrs;
    loads = after.loads - before.loads;
    stores = after.stores - before.stores;
    storeps = after.storeps - before.storeps;
    mem_accesses = after.mem_accesses - before.mem_accesses;
    branches = after.branches - before.branches;
    branch_mispredicts = after.branch_mispredicts - before.branch_mispredicts;
    polb_accesses = after.polb_accesses - before.polb_accesses;
    polb_misses = after.polb_misses - before.polb_misses;
    valb_accesses = after.valb_accesses - before.valb_accesses;
    valb_misses = after.valb_misses - before.valb_misses;
    pow_walks = after.pow_walks - before.pow_walks;
    vaw_walks = after.vaw_walks - before.vaw_walks;
    vaw_nodes = after.vaw_nodes - before.vaw_nodes;
    dram_accesses = after.dram_accesses - before.dram_accesses;
    nvm_accesses = after.nvm_accesses - before.nvm_accesses;
    l1_hits = after.l1_hits - before.l1_hits;
    l1_accesses = after.l1_accesses - before.l1_accesses;
    l2_hits = after.l2_hits - before.l2_hits;
    l2_accesses = after.l2_accesses - before.l2_accesses;
    l3_hits = after.l3_hits - before.l3_hits;
    l3_accesses = after.l3_accesses - before.l3_accesses;
    l1_hit_rate =
      rate (after.l1_hits - before.l1_hits)
        (after.l1_accesses - before.l1_accesses);
    l2_hit_rate =
      rate (after.l2_hits - before.l2_hits)
        (after.l2_accesses - before.l2_accesses);
    l3_hit_rate =
      rate (after.l3_hits - before.l3_hits)
        (after.l3_accesses - before.l3_accesses);
    storep_stall_cycles =
      after.storep_stall_cycles - before.storep_stall_cycles;
  }
