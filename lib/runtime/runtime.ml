(* The execution runtime: one memory-access API with four behaviours,
   matching the four versions the paper evaluates (Section VII-A):

     Volatile — native pointers, everything in DRAM; the overhead-free
                reference point.
     Sw       — user-transparent persistent references implemented by
                compiler-inserted software checks: at every site the
                inference could not resolve statically, the generated
                code branches on the pointer format and calls software
                ra2va/va2ra, whose instructions, kernel-table loads and
                branches are all modeled.
     Hw       — user-transparent persistent references with the storeP
                instruction, POLB and VALB: conversions ride the
                address-generation path (POLB) or the storeP unit
                (POLB/VALB, latency hidden unless the FSM fills up).
                A loaded relative pointer is converted once when
                materialized and the virtual address is reused — the
                Fig. 12 effect.
     Explicit — the explicit-persistent-reference baseline [26]: object
                handles stay relative everywhere, so *every* access to a
                persistent object pays a translation plus API overhead.

   Data structures and applications are written once against this API;
   the mode is picked at runtime creation. *)

module Layout = Nvml_simmem.Layout
module Mem = Nvml_simmem.Mem
module Ptr = Nvml_core.Ptr
module Xlate = Nvml_core.Xlate
module Checks = Nvml_core.Checks
module Semantics = Nvml_core.Semantics
module Pmop = Nvml_pool.Pmop
module Valloc = Nvml_pool.Valloc
module Freelist = Nvml_pool.Freelist
module Cpu = Nvml_arch.Cpu
module Config = Nvml_arch.Config
module Telemetry = Nvml_telemetry.Telemetry
module Hit_miss = Nvml_telemetry.Stats.Hit_miss

(* Check-execution counters: how many pointer-operation executions ran
   a dynamic check versus hit a statically-resolved (elided) site — the
   execution-weighted companion of the paper's ~42 % site-count
   figure. *)
let c_checks_dynamic = Telemetry.counter "checks.dynamic"
let c_checks_elided = Telemetry.counter "checks.elided"
let c_alloc_persistent = Telemetry.counter "alloc.persistent"
let c_alloc_volatile = Telemetry.counter "alloc.volatile"
let c_dealloc = Telemetry.counter "alloc.free"
let c_crashes = Telemetry.counter "runtime.crashes"

(* Fig. 3's pointerAssignment outcome of each SW/HW pointer store, by
   destination location and value format ([store_ptr]). *)
let c_pa_keep_relative = Telemetry.counter "check.pointer_assignment.keep_relative"
let c_pa_keep_virtual = Telemetry.counter "check.pointer_assignment.keep_virtual"
let c_pa_va2ra = Telemetry.counter "check.pointer_assignment.va2ra"
let c_pa_ra2va = Telemetry.counter "check.pointer_assignment.ra2va"

type mode = Volatile | Sw | Hw | Explicit

let mode_name = function
  | Volatile -> "volatile"
  | Sw -> "SW"
  | Hw -> "HW"
  | Explicit -> "explicit"

let pp_mode ppf m = Fmt.string ppf (mode_name m)

let all_modes = [ Volatile; Sw; Hw; Explicit ]

type t = {
  mode : mode;
  cfg : Config.t;
  mem : Mem.t;
  pm : Pmop.t;
  mutable valloc : Valloc.t;
  x : Xlate.t;
  cpu : Cpu.t;
  mutable pot_table_va : int64; (* software POT, read by SW ra2va *)
  mutable vat_table_va : int64; (* software VAT, read by SW va2ra *)
  (* The "opportunistically kept relative form" of Section IV: when the
     HW version converts a loaded relative pointer to a virtual address,
     the compiler keeps the original relative value live in a register
     for a while; storing the pointer back into NVM shortly after needs
     no VALB translation.  Modeled as a small FIFO of recent
     (virtual address -> relative form) pairs standing in for the live
     register set ([Rel_window]). *)
  reg_rel : Rel_window.t;
  (* Store interception: called with the destination cell of every
     store that targets pool memory, before the store executes.  This
     is the paper's "compiler inserts the necessary runtime logging"
     hook: Txn.instrument points it at the undo log so legacy structure
     code becomes failure-atomic without source changes. *)
  mutable store_interceptor : (Ptr.t -> unit) option;
  (* Buffered persistency: the engine is machine state shared by every
     core ([fork]); the epoch counter is per-core — each core closes
     its own epochs, all of them draining the shared dirty-line
     buffer. *)
  persist : Persist.t;
  mutable persist_ops : int;
}

(* The volatile allocator's DRAM budget (128 MiB). *)
let dram_capacity = 1 lsl 27

(* The benchmark's core-speed override (see [with_default_timing]):
   [None] lets each machine's configuration decide.  Read once per
   [create]; workers inherit the value set before task submission (the
   pool join is a barrier), so [--jobs N] stays deterministic. *)
let timing_override : bool option Atomic.t = Atomic.make None

let with_default_timing v f =
  let prev = Atomic.exchange timing_override (Some v) in
  Fun.protect ~finally:(fun () -> Atomic.set timing_override prev) f

let create ?(cfg = Config.default) ?(persist = Persist.Eager) ~mode () =
  let cfg =
    match Atomic.get timing_override with
    | Some timing -> { cfg with Config.timing }
    | None -> cfg
  in
  let mem = Mem.create () in
  let pm = Pmop.create mem in
  let cpu = Cpu.create cfg mem in
  if not (Persist.is_eager persist) then Cpu.set_relaxed_persistency cpu true;
  {
    mode;
    cfg;
    mem;
    pm;
    valloc = Valloc.create mem ~capacity:dram_capacity;
    x = Xlate.make (Pmop.provider pm);
    cpu;
    pot_table_va = Mem.map_fresh mem Layout.Dram 65536;
    vat_table_va = Mem.map_fresh mem Layout.Dram 65536;
    reg_rel = Rel_window.create ();
    store_interceptor = None;
    persist = Persist.create persist (Mem.phys mem);
    persist_ops = 0;
  }

(* A sibling execution context for one more core of a multi-core
   machine: shares the primary's memory system, pools, volatile
   allocator, translation unit and kernel tables, but runs on its own
   core ({!Cpu.create_sibling}) with its own live-register
   relative-form window and store interceptor.  Forks are per-process
   volatile state: after [crash_and_restart] on the primary they are
   stale (the primary rebuilt its allocator and kernel tables) and must
   be re-created from the restarted primary. *)
let fork (t : t) =
  {
    t with
    cpu = Cpu.create_sibling t.cpu;
    reg_rel = Rel_window.create ();
    store_interceptor = None;
    persist_ops = 0;
  }

let set_store_interceptor t f = t.store_interceptor <- f

(* A store targets pool memory when its destination cell is a relative
   pointer or a virtual address inside the NVM half.  When any pool is
   attached read-only degraded (media damage, see [Pmop]), the data
   path refuses stores into it with a typed [Media_error] — the guard
   costs one integer test while every pool is healthy. *)
let intercept_store t (cell : Ptr.t) =
  if Pmop.any_degraded t.pm then Pmop.assert_cell_writable t.pm cell;
  match t.store_interceptor with
  | None -> ()
  | Some f -> if Ptr.is_relative cell || Layout.is_nvm_va cell then f cell

(* Remember that the virtual address [va] was materialized from the
   relative pointer [rel] (both forms live in registers). *)
let remember_rel t ~va ~rel =
  if t.cfg.Config.keep_relative_opt then Rel_window.remember t.reg_rel ~va ~rel

let mode t = t.mode
let atomically t f = Cpu.atomically t.cpu f
let persist t = t.persist
let persist_relaxed t = not (Persist.is_eager (Persist.model t.persist))

(* Drain the shared dirty-line buffer now (epoch close, pre-detach
   sync, explicit barrier).  Flush/fence µ-events and stalls are
   attributed to this core. *)
let persist_sync t = Persist.drain t.persist ~cpu:t.cpu ~cfg:t.cfg

(* One application-level operation completed on this core.  Under
   [Epoch {interval}] every [interval]-th boundary closes the epoch and
   drains; the other models do nothing here. *)
let persist_op_boundary t =
  match Persist.model t.persist with
  | Persist.Eager | Persist.Lazy_on_detach -> ()
  | Persist.Epoch { interval } ->
      t.persist_ops <- t.persist_ops + 1;
      if t.persist_ops >= interval then begin
        t.persist_ops <- 0;
        persist_sync t
      end
let cpu t = t.cpu
let mem t = t.mem
let pmop t = t.pm
let xlate t = t.x
let config t = t.cfg
let counters t = Xlate.counters t.x
let snapshot t = Cpu.snapshot t.cpu

(* --- pool management -------------------------------------------------- *)

let create_pool t ~name ~size =
  let pool = Pmop.create_pool t.pm ~name ~size in
  let base = Option.get (Pmop.pool_base t.pm pool) in
  Cpu.map_pool t.cpu ~base ~size:(Pmop.pool_size t.pm pool) ~pool;
  pool

let open_pool t name =
  let base = Pmop.open_pool t.pm name in
  let pool = Pmop.pool_id_of_name t.pm name in
  Cpu.map_pool t.cpu ~base ~size:(Pmop.pool_size t.pm pool) ~pool;
  base

let detach_pool t pool =
  (* A detach is a durability point under every model: whatever is
     still buffered drains first (this is the whole of the lazy
     model's contract). *)
  persist_sync t;
  (match Pmop.pool_base t.pm pool with
  | Some base -> Cpu.unmap_pool t.cpu ~base ~pool
  | None -> ());
  Pmop.detach_pool t.pm pool

(* Crash the machine: volatile memory, mappings and microarchitectural
   state vanish; pools survive but must be re-opened by the caller. *)
let crash_and_restart t =
  Telemetry.incr c_crashes;
  Telemetry.event "crash_and_restart";
  (* First reveal what the media actually held: buffered lines never
     reached it, so their words revert to the last-drained values. *)
  Persist.crash t.persist;
  t.persist_ops <- 0;
  List.iter
    (fun pool ->
      match Pmop.pool_base t.pm pool with
      | Some base -> Cpu.unmap_pool t.cpu ~base ~pool
      | None -> ())
    (Pmop.pool_ids t.pm);
  Pmop.crash t.pm;
  Cpu.flush_volatile t.cpu;
  t.valloc <- Valloc.create t.mem ~capacity:dram_capacity;
  t.pot_table_va <- Mem.map_fresh t.mem Layout.Dram 65536;
  t.vat_table_va <- Mem.map_fresh t.mem Layout.Dram 65536;
  Rel_window.clear t.reg_rel;
  (* The interceptor is volatile (it belongs to the crashed process);
     recovery code re-registers its own via Txn.instrument if needed. *)
  t.store_interceptor <- None

(* --- generic event helpers --------------------------------------------- *)

let instr t n = Cpu.instr t.cpu n

(* A conditional branch in application/library control flow. *)
let branch t ~site taken =
  Cpu.branch t.cpu ~pc:(Site.pc site) ~taken;
  taken

(* --- software check/conversion cost models (SW mode) ------------------- *)

let count_dynamic_check t =
  let c = Xlate.counters t.x in
  c.Xlate.dynamic_checks <- c.Xlate.dynamic_checks + 1

(* The dynamic check the compiler emits at an unresolved site.  Per
   Fig. 9, the generated code *calls* the shared runtime helpers
   (determineY / determineX / pointerAssignment), so the check branches
   live at fixed PCs shared by every call site; operands of different
   formats arriving from different sites interleave at those PCs, which
   is what makes these branches hard to predict. *)
let pc_determine_y = 8
let pc_determine_x = 16

let sw_check t ~site (v : Ptr.t) =
  if Site.is_static site then Telemetry.incr c_checks_elided
  else begin
    count_dynamic_check t;
    Telemetry.incr c_checks_dynamic;
    Telemetry.incr (Site.check_counter site);
    Cpu.instr t.cpu t.cfg.sw_check_instrs;
    Cpu.branch t.cpu ~pc:pc_determine_y ~taken:(Ptr.is_relative v);
    if t.cfg.sw_check_branches > 1 then
      Cpu.branch t.cpu ~pc:pc_determine_x
        ~taken:(Checks.determine_x v = Layout.Nvm)
  end

(* Software ra2va: a call that hashes the pool id into the in-memory
   POT and reads the base, then adds the offset. *)
let sw_ra2va t (p : Ptr.t) : int64 =
  if not (Ptr.is_relative p) then p
  else begin
    Cpu.instr t.cpu t.cfg.sw_ra2va_instrs;
    let slot = Ptr.pool_of p land 4095 in
    for i = 0 to t.cfg.sw_ra2va_loads - 1 do
      Cpu.load t.cpu
        (Int64.add t.pot_table_va (Int64.of_int ((slot * 16) + (i * 8))))
    done;
    Xlate.ra2va t.x p
  end

(* Software va2ra: a call that searches the in-memory VAT range table. *)
let sw_va2ra t (p : Ptr.t) : Ptr.t =
  if Ptr.is_relative p || Ptr.is_null p then p
  else begin
    Cpu.instr t.cpu t.cfg.sw_va2ra_instrs;
    for i = 0 to t.cfg.sw_va2ra_loads - 1 do
      Cpu.load t.cpu (Int64.add t.vat_table_va (Int64.of_int (i * 64)))
    done;
    Xlate.va2ra t.x p
  end

(* --- address resolution -------------------------------------------------- *)

(* Resolve the pointer [p] to the virtual address issued to the memory
   system, charging the mode-appropriate conversion cost. *)
let resolve t ~site (p : Ptr.t) : int64 =
  match t.mode with
  | Volatile -> p
  | Sw ->
      sw_check t ~site p;
      if Ptr.is_relative p then sw_ra2va t p else p
  | Hw ->
      if Ptr.is_relative p then begin
        Cpu.polb_translate t.cpu ~pool:(Ptr.pool_of p);
        Xlate.ra2va t.x p
      end
      else p
  | Explicit ->
      if Ptr.is_relative p then begin
        (* Handle-based API: dereference overhead at every access. *)
        Cpu.instr t.cpu 2;
        Cpu.polb_translate t.cpu ~pool:(Ptr.pool_of p);
        Xlate.ra2va t.x p
      end
      else p

(* --- data accesses --------------------------------------------------------- *)

let addr p off = Ptr.add p (Int64.of_int off)

(* Fused functional+timing access: translate the virtual address once
   and hand the packed physical address to both the timing model and
   the backing store (the pre-fusion code translated twice per access —
   once in [Cpu.load]/[Cpu.store], once in [Mem.read_word]). *)
let mem_load t va =
  let pa = Mem.translate_pa_exn t.mem va in
  Cpu.load_pa t.cpu ~va ~pa;
  if pa land 7 <> 0 then raise (Mem.Unaligned va);
  Mem.read_word_pa t.mem pa

let mem_store t va v =
  let pa = Mem.translate_pa_exn t.mem va in
  Cpu.store_pa t.cpu ~va ~pa;
  if pa land 7 <> 0 then raise (Mem.Unaligned va);
  Mem.write_word_pa t.mem pa v

let load_word t ~site (p : Ptr.t) ~off : int64 =
  let va = resolve t ~site (addr p off) in
  mem_load t va

let store_word t ~site (p : Ptr.t) ~off (v : int64) : unit =
  let cell = addr p off in
  intercept_store t cell;
  let va = resolve t ~site cell in
  mem_store t va v

let load_f64 t ~site p ~off = Int64.float_of_bits (load_word t ~site p ~off)
let store_f64 t ~site p ~off v = store_word t ~site p ~off (Int64.bits_of_float v)

(* Load a *pointer-typed* field.  On top of the plain load, the loaded
   value is materialized into a local, which is where the
   user-transparent schemes convert a relative value to a reusable
   virtual address (SW: inlined check + software ra2va; HW: one POLB
   translation).  The Explicit baseline keeps the raw handle and pays
   per-access translation later instead. *)
let load_ptr t ~site (p : Ptr.t) ~off : Ptr.t =
  let va = resolve t ~site (addr p off) in
  let raw = mem_load t va in
  match t.mode with
  | Volatile | Explicit -> raw
  | Sw ->
      sw_check t ~site raw;
      if Ptr.is_relative raw then sw_ra2va t raw else raw
  | Hw ->
      if Ptr.is_relative raw then begin
        Cpu.polb_translate t.cpu ~pool:(Ptr.pool_of raw);
        let va = Xlate.ra2va t.x raw in
        remember_rel t ~va ~rel:raw;
        va
      end
      else raw

(* Store a *pointer-typed* value into the cell at [p + off], applying
   the Fig. 3 pointerAssignment semantics: the stored representation is
   dictated by where the destination cell lives. *)
let store_ptr t ~site (p : Ptr.t) ~off (value : Ptr.t) : unit =
  let cell = addr p off in
  intercept_store t cell;
  match t.mode with
  | Volatile -> mem_store t cell value
  | Sw ->
      let va = resolve t ~site cell in
      (* Inlined pointerAssignment: checks on destination and source. *)
      sw_check t ~site cell;
      sw_check t ~site value;
      let stored =
        match (Checks.determine_x cell, Ptr.format value) with
        | Layout.Nvm, Ptr.Relative ->
            Telemetry.incr c_pa_keep_relative;
            value
        | Layout.Nvm, Ptr.Virtual ->
            Telemetry.incr c_pa_va2ra;
            sw_va2ra t value
        | Layout.Dram, Ptr.Relative ->
            Telemetry.incr c_pa_ra2va;
            sw_ra2va t value
        | Layout.Dram, Ptr.Virtual ->
            Telemetry.incr c_pa_keep_virtual;
            value
      in
      mem_store t va stored
  | Hw ->
      let dst_va = Xlate.ra2va t.x cell in
      let cell_loc = Checks.determine_x cell in
      (* Operand conversions go straight into the core's reusable xop
         buffer (destination first, then source — same order as the old
         [rd_ops @ rs_ops] lists) so the hot path allocates nothing. *)
      Cpu.xop_reset t.cpu;
      if Ptr.is_relative cell then Cpu.xop_push_polb t.cpu ~pool:(Ptr.pool_of cell);
      let stored =
        match (cell_loc, Ptr.format value) with
        | Layout.Nvm, Ptr.Relative ->
            Telemetry.incr c_pa_keep_relative;
            value
        | Layout.Nvm, Ptr.Virtual ->
            Telemetry.incr c_pa_va2ra;
            if Ptr.is_null value then value
            else (
              (* If this virtual address was materialized from a
                 relative pointer still live in a register, the compiler
                 stores that relative form directly — no VALB needed
                 (the Section IV "keep relative opportunistically"
                 optimization). *)
              let slot = Rel_window.find t.reg_rel value in
              if slot >= 0 then Rel_window.rel t.reg_rel slot
              else begin
                let r = Xlate.va2ra t.x value in
                Cpu.xop_push_valb t.cpu ~va:value;
                r
              end)
        | Layout.Dram, Ptr.Relative ->
            Telemetry.incr c_pa_ra2va;
            let r = Xlate.ra2va t.x value in
            Cpu.xop_push_polb t.cpu ~pool:(Ptr.pool_of value);
            r
        | Layout.Dram, Ptr.Virtual ->
            Telemetry.incr c_pa_keep_virtual;
            value
      in
      let dst_pa = Mem.translate_pa_exn t.mem dst_va in
      Cpu.store_p_buffered t.cpu ~dst_va ~dst_pa;
      if dst_pa land 7 <> 0 then raise (Mem.Unaligned dst_va);
      Nvml_simmem.Physmem.fire (Mem.phys t.mem) Nvml_simmem.Fi.Storep_retire;
      Mem.write_word_pa t.mem dst_pa stored
  | Explicit ->
      (* Handles are stored as-is; only the destination access needs a
         translation. *)
      let va = resolve t ~site cell in
      mem_store t va value

(* --- pointer predicates ----------------------------------------------------- *)

(* The SW checks on both operands of a two-pointer operator. *)
let check_operands t ~site p q =
  match t.mode with
  | Sw ->
      sw_check t ~site p;
      sw_check t ~site q
  | Volatile | Hw | Explicit -> ()

let ra2va_count t = (Xlate.counters t.x).Xlate.ra2va

(* Charge the mode-appropriate cost of the ra2va translations a
   two-pointer operator performed since the count read [before].  A
   translation means at least one operand is relative. *)
let charge_conversions t ~before p q =
  let conversions = ra2va_count t - before in
  if conversions > 0 then
    match t.mode with
    | Volatile | Explicit -> ()
    | Sw -> Cpu.instr t.cpu (conversions * t.cfg.sw_ra2va_instrs)
    | Hw ->
        let pool = if Ptr.is_relative p then Ptr.pool_of p else Ptr.pool_of q in
        for _ = 1 to conversions do
          Cpu.polb_translate t.cpu ~pool
        done

(* p op q for relational/equality operators.  Conversion costs follow
   Fig. 4: mixed-format operands are normalized, same-pool relative
   pairs and NULL tests are translation-free. *)
let ptr_compare t ~site op (p : Ptr.t) (q : Ptr.t) : bool =
  Cpu.instr t.cpu 1;
  check_operands t ~site p q;
  let before = ra2va_count t in
  let result = Semantics.compare_ptr t.x op p q in
  charge_conversions t ~before p q;
  result

let ptr_eq t ~site (p : Ptr.t) (q : Ptr.t) : bool =
  ptr_compare t ~site Semantics.Eq p q

(* p - q in elements (Fig. 4 additive operators). *)
let ptr_diff t ~site (p : Ptr.t) (q : Ptr.t) ~elem_size : int64 =
  Cpu.instr t.cpu 2;
  check_operands t ~site p q;
  let before = ra2va_count t in
  let result = Semantics.diff t.x p q ~elem_size in
  charge_conversions t ~before p q;
  result

(* (I)p — pointer-to-integer cast: a relative pointer exposes its
   virtual address (Fig. 4 cast operators). *)
let ptr_to_int t ~site (p : Ptr.t) : int64 =
  Cpu.instr t.cpu 1;
  match t.mode with
  | Explicit -> Xlate.ra2va t.x p
  | Volatile | Sw | Hw -> resolve t ~site p

let ptr_is_null t ~site (p : Ptr.t) : bool =
  Cpu.instr t.cpu 1;
  (match t.mode with
  | Sw -> sw_check t ~site p
  | Volatile | Hw | Explicit -> ());
  Ptr.is_null p

(* --- allocation --------------------------------------------------------------- *)

(* Cost model for an allocator call: some bookkeeping instructions plus
   free-list traffic against the arena header. *)
let charge_alloc t ~arena_va =
  Cpu.instr t.cpu 40;
  Cpu.load t.cpu arena_va;
  Cpu.load t.cpu (Int64.add arena_va 16L);
  Cpu.store t.cpu (Int64.add arena_va 16L)

let valloc_arena_va t = Valloc.base t.valloc

let pool_arena_va t pool =
  match Pmop.pool_base t.pm pool with
  | Some base -> base
  | None -> invalid_arg "Runtime: pool not mapped"

(* Allocate [size] bytes.  [persistent] requests pool memory; in the
   Volatile configuration there is no NVM, so everything lands in DRAM
   (that version "cannot work on real NVM systems" but is the clean
   reference point).  Persistent allocations return relative-format
   pointers, as pmalloc is defined to. *)
let alloc t ?pool ~persistent size : Ptr.t =
  match (t.mode, persistent) with
  | Volatile, _ | _, false ->
      Telemetry.incr c_alloc_volatile;
      charge_alloc t ~arena_va:(valloc_arena_va t);
      Valloc.malloc t.valloc size
  | (Sw | Hw | Explicit), true ->
      let pool =
        match pool with
        | Some p -> p
        | None -> invalid_arg "Runtime.alloc: persistent alloc needs a pool"
      in
      Telemetry.incr c_alloc_persistent;
      charge_alloc t ~arena_va:(pool_arena_va t pool);
      Pmop.pmalloc t.pm ~pool size

(* Where a data structure's nodes live.  [Pool_region] degrades to DRAM
   in the Volatile configuration (that version has no NVM at all). *)
type region = Dram_region | Pool_region of int

let alloc_in t region size =
  match region with
  | Dram_region -> alloc t ~persistent:false size
  | Pool_region pool -> alloc t ~pool ~persistent:true size

(* The region an existing object lives in — how a re-attached structure
   discovers where to allocate new nodes. *)
let region_of_ptr t (p : Ptr.t) : region =
  if Ptr.is_relative p then Pool_region (Ptr.pool_of p)
  else if Layout.is_nvm_va p then
    match Pmop.pool_of_va t.pm p with
    | Some (pool, _) -> Pool_region pool
    | None -> Dram_region
  else Dram_region

let dealloc t (p : Ptr.t) : unit =
  Telemetry.incr c_dealloc;
  (* pfree is one of the functions marked as accepting relative
     addresses: a virtual address into the NVM half is converted before
     the call (the compiler inserts the va2ra). *)
  let p =
    if Ptr.is_virtual p && Layout.is_nvm_va p then Xlate.va2ra t.x p else p
  in
  if Ptr.is_relative p then begin
    charge_alloc t ~arena_va:(pool_arena_va t (Ptr.pool_of p));
    Pmop.pfree t.pm p
  end
  else begin
    charge_alloc t ~arena_va:(valloc_arena_va t);
    Valloc.free t.valloc p
  end

(* --- pool roots ----------------------------------------------------------------- *)

(* The root slot is an ordinary NVM cell inside the pool header, so the
   usual pointer store/load semantics apply to it. *)
let root_cell ~pool = Ptr.make_relative ~pool ~offset:Freelist.off_root

let set_root t ~site ~pool (p : Ptr.t) =
  store_ptr t ~site (root_cell ~pool) ~off:0 p

(* Container roots are the one anchor applications follow blindly after
   a restart, so a pointer-shaped root is bounds-checked against its
   pool's heap before it is handed out: a rotted root raises a typed
   [Media_error] here instead of dereferencing garbage downstream. *)
let get_root t ~site ~pool : Ptr.t =
  let p = load_ptr t ~site (root_cell ~pool) ~off:0 in
  Pmop.check_root_target t.pm p;
  p

(* --- telemetry publication ---------------------------------------------- *)

(* The cache-like structures keep plain module-local counters on the
   hot paths; this publishes their totals into the current telemetry
   sink in one cold pass.  Registered eagerly so the counters appear
   (as zeros) in every stats dump. *)
let pub_hit_miss =
  let handles = Hashtbl.create 16 in
  List.iter
    (fun base ->
      Hashtbl.replace handles base
        ( Telemetry.counter (base ^ ".hit"),
          Telemetry.counter (base ^ ".miss") ))
    [
      "tlb.l1"; "tlb.l2"; "cache.l1"; "cache.l2"; "cache.l3"; "polb"; "valb";
      "vspace.tc";
    ];
  fun base (hm : Hit_miss.t) ->
    let chit, cmiss = Hashtbl.find handles base in
    Telemetry.add chit (Hit_miss.hits hm);
    Telemetry.add cmiss (Hit_miss.misses hm)

let c_storep_issued = Telemetry.counter "storep.issued"
let c_storep_stalls = Telemetry.counter "storep.stall_cycles"
let c_pow_walks = Telemetry.counter "polb.pow_walks"
let c_vaw_walks = Telemetry.counter "valb.vaw_walks"
let c_vaw_nodes = Telemetry.counter "valb.vaw_nodes"
let c_dram_accesses = Telemetry.counter "mem.dram_accesses"
let c_nvm_accesses = Telemetry.counter "mem.nvm_accesses"
let c_phys_reads = Telemetry.counter "physmem.reads"
let c_phys_writes = Telemetry.counter "physmem.writes"
let c_phys_dram_frames = Telemetry.counter "physmem.dram_frames"
let c_phys_nvm_frames = Telemetry.counter "physmem.nvm_frames"
let c_x_ra2va = Telemetry.counter "xlate.ra2va"
let c_x_va2ra = Telemetry.counter "xlate.va2ra"
let c_x_checks = Telemetry.counter "xlate.dynamic_checks"

module Cache = Nvml_arch.Cache
module Valb = Nvml_arch.Valb
module Storep_unit = Nvml_arch.Storep_unit
module Vspace = Nvml_simmem.Vspace
module Physmem = Nvml_simmem.Physmem

let publish_stats t =
  List.iter
    (fun (n, c) ->
      let base =
        match n with
        | "l1_tlb" -> "tlb.l1"
        | "l2_tlb" -> "tlb.l2"
        | "polb" -> "polb"
        | n -> "cache." ^ n
      in
      pub_hit_miss base (Cache.stats c))
    (Cpu.caches t.cpu);
  pub_hit_miss "valb" (Valb.stats (Cpu.valb t.cpu));
  pub_hit_miss "vspace.tc" (Vspace.tc_stats (Mem.vspace t.mem));
  let sp = Cpu.storep t.cpu in
  Telemetry.add c_storep_issued (Storep_unit.issued sp);
  Telemetry.add c_storep_stalls (Storep_unit.stall_cycles sp);
  let s = Cpu.snapshot t.cpu in
  Telemetry.add c_pow_walks s.Cpu.pow_walks;
  Telemetry.add c_vaw_walks s.Cpu.vaw_walks;
  Telemetry.add c_vaw_nodes s.Cpu.vaw_nodes;
  Telemetry.add c_dram_accesses s.Cpu.dram_accesses;
  Telemetry.add c_nvm_accesses s.Cpu.nvm_accesses;
  let phys = Mem.phys t.mem in
  Telemetry.add c_phys_reads (Physmem.reads phys);
  Telemetry.add c_phys_writes (Physmem.writes phys);
  Telemetry.add c_phys_dram_frames (Physmem.dram_frames_allocated phys);
  Telemetry.add c_phys_nvm_frames (Physmem.nvm_frames_allocated phys);
  let xc = Xlate.counters t.x in
  Telemetry.add c_x_ra2va xc.Xlate.ra2va;
  Telemetry.add c_x_va2ra xc.Xlate.va2ra;
  Telemetry.add c_x_checks xc.Xlate.dynamic_checks;
  Persist.publish t.persist
