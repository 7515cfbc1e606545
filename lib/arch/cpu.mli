(** The timing model: an interval-style in-order core in the spirit of
    the paper's Snipersim setup.  The runtime narrates execution as
    micro-events (instructions, branches, memory accesses, translations,
    storeP issues); the model accumulates cycles and statistics.

    Cycle accounting: every instruction costs one issue cycle, which
    covers an L1-cache and L1-TLB hit; deeper levels, mispredictions,
    exposed POLB/VALB latencies and storeP structural stalls add stall
    cycles on top.

    Two-speed simulation: with [Config.timing = false] the core runs in
    fast functional mode — every event counter (instrs, loads, stores,
    storeps, branches, dram/nvm accesses) is still maintained, but no
    cache/TLB/predictor/lookaside/storeP state is touched and
    [cycles = instrs].  Functional outputs (and hence check outcomes,
    crash points, scrub reports) are identical in both modes. *)

type t

val create : Config.t -> Nvml_simmem.Mem.t -> t
(** A core at the configuration's speed ([Config.timing]). *)

(** {2 Multi-core support}

    A sibling core shares the outer hierarchy (L2, L3, POLB, VALB and
    the kernel VATB) with its parent but has a private front end
    (branch predictor, TLBs, L1, storeP unit) and private counters.
    The hooks are the multi-core scheduler's attachment points; both
    default to no-ops, so a single-core machine is byte-identical to
    the pre-multi-core one. *)

val create_sibling : t -> t
(** A fresh core sharing [t]'s L2/L3/POLB/VALB/VATB (and the parent's
    persistency-model setting). *)

val set_relaxed_persistency : t -> bool -> unit
(** Under a relaxed (buffered) persistency model, storeP retirements
    pay only their exposed translation latency instead of the persist
    FSM occupancy stall — durability moves to the epoch drain.  [false]
    (the default) is the eager model, byte-identical to earlier
    releases. *)

val set_hooks : t -> on_step:(unit -> unit) -> on_store:(int -> unit) -> unit
(** [on_step] fires once per narrated µ-event (the interleave point);
    [on_store] fires after each completed store with the packed
    physical address (the coherence broadcast point). *)

val clear_hooks : t -> unit

val atomically : t -> (unit -> 'a) -> 'a
(** [atomically t f] models a hardware atomic read-modify-write on this
    core: [t]'s [on_step] hook is off while [f] runs (restored after,
    even on raise), so no other core's µ-events interleave with [f]'s.
    On a core with no hooks this is just [f ()]. *)

val invalidate_line : t -> int -> bool
(** Coherence shoot-down: another core stored to this packed physical
    address; drop this core's private L1 copy of the line.  [true] iff
    the line was present.  No-op (and [false]) in fast mode. *)

val instr : t -> int -> unit
val branch : t -> pc:int -> taken:bool -> unit

val persist_stall : t -> int -> unit
(** Charge [n] stall cycles (attributed to memory stalls) for a
    buffered-persistency drain µ-event.  No-op in fast mode, and never
    advances the multi-core scheduler — a drain is atomic with respect
    to other cores. *)

val load : t -> int64 -> unit
val store : t -> int64 -> unit

val load_pa : t -> va:int64 -> pa:int -> unit
(** Like {!load}, but with the translation already done by the caller:
    [pa] is the packed physical address from [Mem.translate_pa].
    Allocation-free — the hot path for fused functional+timing
    accesses. *)

val store_pa : t -> va:int64 -> pa:int -> unit

val polb_translate : t -> pool:int -> unit
(** An ra2va on the address-generation path (exposed latency; a miss
    adds the POW walk). *)

(** {2 storeP}

    A storeP instruction narrates its operand conversions into a
    reusable, allocation-free buffer — {!xop_push_polb} for an ra2va
    through the POLB, {!xop_push_valb} for a va2ra through the VALB, at
    most one per source register — then retires with
    {!store_p_buffered}: the buffered translations run concurrently
    inside an FSM entry (stalling only when the unit is full), the
    buffer drains, and the store itself accesses memory at the resolved
    destination. *)

val xop_reset : t -> unit
val xop_push_polb : t -> pool:int -> unit
val xop_push_valb : t -> va:int64 -> unit
val store_p_buffered : t -> dst_va:int64 -> dst_pa:int -> unit

val map_pool : t -> base:int64 -> size:int -> pool:int -> unit
(** Install the pool range in the VATB. *)

val unmap_pool : t -> base:int64 -> pool:int -> unit
(** Remove from the VATB and shoot down VALB/POLB entries. *)

val flush_volatile : t -> unit
(** Crash/restart: caches, TLBs, lookaside buffers and the storeP unit
    lose their state. *)

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
  l1_hit_rate : float;  (** [l1_hits / l1_accesses], 0 with no access *)
  l2_hit_rate : float;
  l3_hit_rate : float;
  storep_stall_cycles : int;
}

val snapshot : t -> snapshot
val cycles : t -> int
val diff_snapshot : snapshot -> snapshot -> snapshot
(** [diff_snapshot after before] — per-phase deltas; the hit rates are
    those of the phase's own hits and accesses. *)

(** {2 Cycle attribution}

    Every cycle beyond the one-per-instruction base is charged to
    exactly one stall source, so
    [attribution_total (attribution t) = cycles t] always holds. *)

type attribution = {
  base : int;  (** one cycle per retired instruction *)
  branch : int;  (** misprediction penalties *)
  tlb : int;  (** L2-TLB hits and page walks *)
  cache : int;  (** L2/L3 hit latencies *)
  mem : int;  (** DRAM/NVM access latencies *)
  xlate : int;  (** exposed POLB latency on the AGU path *)
  storep : int;  (** storeP structural stalls *)
}

val attribution : t -> attribution
val attribution_total : attribution -> int
val diff_attribution : attribution -> attribution -> attribution

(** {2 Component access for telemetry publication} *)

val caches : t -> (string * Cache.t) list
(** [("l1_tlb", ...); ("l2_tlb", ...); ("l1", ...); ("l2", ...);
    ("l3", ...); ("polb", ...)] *)

val valb : t -> Valb.t
val storep : t -> Storep_unit.t
