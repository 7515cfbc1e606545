(** The execution runtime: one memory-access API with four behaviours,
    matching the four versions the paper evaluates (Section VII-A).

    - {b Volatile} — native pointers, everything in DRAM; the
      overhead-free reference point.
    - {b Sw} — user-transparent persistent references by
      compiler-inserted software checks; check instructions,
      kernel-table loads and branches are all modeled.
    - {b Hw} — user-transparent persistent references with the storeP
      instruction, POLB and VALB; a loaded relative pointer is converted
      once when materialized and the virtual address is reused (the
      Fig. 12 effect), and recently materialized relative forms are kept
      live so store-backs need no VALB translation (the Section IV
      "keep relative opportunistically" optimization).
    - {b Explicit} — the explicit-persistent-reference baseline: object
      handles stay relative everywhere, so every access to a persistent
      object pays a translation plus handle-API overhead.

    Data structures and applications are written once against this API;
    the mode is chosen at runtime creation, and the same code produces
    bit-identical results in every mode. *)

module Ptr = Nvml_core.Ptr
module Xlate = Nvml_core.Xlate
module Cpu = Nvml_arch.Cpu
module Config = Nvml_arch.Config

type mode = Volatile | Sw | Hw | Explicit

val mode_name : mode -> string
val pp_mode : mode Fmt.t
val all_modes : mode list

type t

val create : ?cfg:Config.t -> ?persist:Persist.model -> mode:mode -> unit -> t
(** [cfg] (default {!Config.default}) is the machine, core speed
    included: [Config.timing] selects cycle-accurate ([true]) or fast
    functional ([false]) simulation.  Both speeds perform identical
    pointer-format checks, POW/VAW translations, crash-point hooks and
    media hooks; fast mode skips all cache/TLB/predictor/storeP timing,
    so [cycles = instrs] and timing statistics read as zero.

    [persist] selects the persistency model (default {!Persist.Eager},
    which is bit-identical to the pre-existing behavior).  Relaxed
    models buffer dirty NVM lines in the machine-wide {!Persist.t}
    engine and drain them at epoch boundaries
    ({!persist_op_boundary}), explicit syncs ({!persist_sync}) and
    {!detach_pool}. *)

val mode : t -> mode

(** {1 Persistency model} *)

val persist : t -> Persist.t
(** The machine-wide buffered-persistency engine (shared by forks). *)

val persist_relaxed : t -> bool
(** [true] iff the model buffers (epoch or lazy). *)

val persist_sync : t -> unit
(** Drain the shared dirty-line buffer now; flush/fence µ-events and
    stall cycles are attributed to this core.  No-op under [Eager]. *)

val persist_op_boundary : t -> unit
(** Mark the end of one application-level operation on this core.
    Under [Epoch {interval}] every [interval]-th boundary closes the
    core's epoch and drains the shared buffer; no-op otherwise. *)

val fork : t -> t
(** A sibling execution context for one more core of a multi-core
    machine: shares the primary's memory system, pools, volatile
    allocator, translation unit and kernel tables, but runs on its own
    core ({!Cpu.create_sibling} — private front end, shared
    L2/L3/POLB/VALB/VATB) with its own live-register window and store
    interceptor.  Forks are per-process volatile state: after
    {!crash_and_restart} on the primary they are stale and must be
    re-created from the restarted primary. *)

val with_default_timing : bool -> (unit -> 'a) -> 'a
(** [with_default_timing v f] runs [f ()] with every machine {!create}
    builds running at speed [v], whatever its [Config.timing], and
    restores the previous setting afterwards (even on raise).  This is
    the host-time benchmark's override ([benchmark/cells.ml]) and,
    apart from its own test, it has no other caller: everything else
    passes a configuration.  It goes once the benchmark passes one
    too. *)

val atomically : t -> (unit -> 'a) -> 'a
(** [atomically t f] runs [f] as one atomic read-modify-write on [t]'s
    core ({!Cpu.atomically}): inside a multi-core run no other core's
    µ-events interleave with [f]'s.  Outside a run it is just [f ()]. *)

val cpu : t -> Cpu.t
val mem : t -> Nvml_simmem.Mem.t
val pmop : t -> Nvml_pool.Pmop.t
val xlate : t -> Xlate.t
val config : t -> Config.t
val counters : t -> Xlate.counters
val snapshot : t -> Cpu.snapshot

(** {1 Pool management} *)

val create_pool : t -> name:string -> size:int -> int
(** Create, map and register a pool; returns its ID. *)

val open_pool : t -> string -> int64
(** Re-open a pool after a crash; returns its (fresh) base address. *)

val detach_pool : t -> int -> unit
(** Unmap and detach the pool.  A detach is a durability point under
    every persistency model: the shared buffer drains first (this is
    the whole of the [Lazy_on_detach] contract). *)

val crash_and_restart : t -> unit
(** Simulated power failure plus reboot.

    Erased: all DRAM contents and virtual mappings (every pool becomes
    detached), microarchitectural state (TLBs, caches, POLB/VALB,
    storeP queue), the volatile allocator, the kept-relative register
    set, and any store interceptor ({!set_store_interceptor}) or pool
    metadata hook — they belong to the crashed process.  Survives: pool
    NVM frames (including allocator metadata, root slots and any undo
    log) and the pool registry.  The caller re-opens pools with
    {!open_pool}, which maps them at different bases. *)

(** {1 Event helpers} *)

val instr : t -> int -> unit
(** Account [n] non-memory instructions. *)

val branch : t -> site:Site.t -> bool -> bool
(** Record a conditional branch at [site] with the given outcome;
    returns the outcome for use in [if]. *)

(** {1 Data accesses} *)

val load_word : t -> site:Site.t -> Ptr.t -> off:int -> int64
val store_word : t -> site:Site.t -> Ptr.t -> off:int -> int64 -> unit
val load_f64 : t -> site:Site.t -> Ptr.t -> off:int -> float
val store_f64 : t -> site:Site.t -> Ptr.t -> off:int -> float -> unit

val load_ptr : t -> site:Site.t -> Ptr.t -> off:int -> Ptr.t
(** Load a pointer-typed field.  In the user-transparent modes the
    loaded value is materialized: a relative value is converted to a
    reusable virtual address (SW: inlined check + software ra2va; HW:
    one POLB translation).  The Explicit baseline returns the raw
    handle and pays per-access translation later instead. *)

val store_ptr : t -> site:Site.t -> Ptr.t -> off:int -> Ptr.t -> unit
(** Store a pointer-typed value, applying the Fig. 3 pointerAssignment
    semantics: the stored representation is dictated by where the
    destination cell lives.  In HW mode this is a storeP instruction. *)

val set_store_interceptor : t -> (Ptr.t -> unit) option -> unit
(** Install a function called with the destination cell of every
    {!store_word}/{!store_ptr} that targets pool memory (relative cell
    or NVM virtual address), before the store executes.  This is the
    compiler-inserted instrumentation point [Txn.instrument] uses to
    undo-log legacy stores; it is volatile state, cleared by
    {!crash_and_restart}. *)

(** {1 Pointer predicates (Fig. 4)} *)

val ptr_compare :
  t -> site:Site.t -> Nvml_core.Semantics.comparison -> Ptr.t -> Ptr.t -> bool

val ptr_eq : t -> site:Site.t -> Ptr.t -> Ptr.t -> bool
val ptr_is_null : t -> site:Site.t -> Ptr.t -> bool
val ptr_diff : t -> site:Site.t -> Ptr.t -> Ptr.t -> elem_size:int -> int64
val ptr_to_int : t -> site:Site.t -> Ptr.t -> int64

(** {1 Allocation} *)

type region = Dram_region | Pool_region of int
(** Where a structure's objects live.  [Pool_region] degrades to DRAM
    in the Volatile configuration, which has no NVM at all. *)

val alloc : t -> ?pool:int -> persistent:bool -> int -> Ptr.t
(** Allocate; persistent allocations return relative-format pointers
    (pmalloc is marked as returning relative addresses). *)

val alloc_in : t -> region -> int -> Ptr.t

val region_of_ptr : t -> Ptr.t -> region
(** The region an existing object lives in — how a re-attached
    structure discovers where to allocate new nodes. *)

val dealloc : t -> Ptr.t -> unit

(** {1 Pool roots} *)

val set_root : t -> site:Site.t -> pool:int -> Ptr.t -> unit
(** Anchor a pointer in the pool's root slot (an ordinary NVM cell, so
    pointer-store semantics apply and the stored form is relative). *)

val get_root : t -> site:Site.t -> pool:int -> Ptr.t

(** {1 Telemetry} *)

val publish_stats : t -> unit
(** Publish this runtime's structural statistics (TLB/cache/POLB/VALB
    hits and misses, storeP issue/stall totals, translation-cache and
    physical-memory traffic, translation counts) into the current
    telemetry sink as counters.  A no-op when telemetry is disabled.
    Call once, at the end of a run — the values are cumulative
    totals. *)
