(** One fuzzing harness per simulated component: the implementation and
    an obviously-correct reference model run in lockstep on a seeded op
    stream, raising {!Engine.Violation} on any observable divergence.

    [~break:true] re-enables the component's fixed bugs (quirks) so a
    self-test can assert the fuzzer still finds them. *)

module Cache_h : sig
  val harness : break:bool -> unit -> Engine.packed
  (** POLB set-associative cache vs per-set MRU lists: hit/miss results,
      residency, and exact LRU order after every op. *)
end

module Valb_h : sig
  val harness : break:bool -> unit -> Engine.packed
  (** VALB range CAM vs an MRU entry list: lookups, one-way-per-pool
      dedup, remapped-base refills, shootdowns and flushes. *)
end

module Storep_h : sig
  val harness : unit -> Engine.packed
  (** storeP unit vs a completion-time multiset: per-issue stalls and
      the issued/stall/peak-occupancy statistics. *)
end

module Persist_h : sig
  val harness : unit -> Engine.packed
  (** Relaxed persist buffer on a bare machine vs the word -> durable
      value map: buffered and write-through stores, drains (some cut by
      a power failure at the k-th line flush), crashes compared over the
      whole media image, and durable-value / buffered-line probes.
      Flush order and every event counter are checked after each op. *)
end

module Vatb_h : sig
  val harness : unit -> Engine.packed
  (** VATB range B-tree vs a slot table: lookups, removals, rebalance
      invariants, and lookup path length bounded by the tree height. *)
end

module Freelist_h : sig
  val harness : unit -> Engine.packed
  (** In-arena first-fit allocator vs a sorted block-list model,
      including scribbled application bytes and bogus frees that the
      allocator must reject. *)
end

module Pmop_h : sig
  val harness : unit -> Engine.packed
  (** Pool manager: per-pool heaps and roots vs block-list models,
      across crash/reopen cycles. *)
end

module Media_h : sig
  val harness : break:bool -> unit -> Engine.packed
  (** Integrity metadata under injected bit flips, vs a per-pool
      corruption ledger: the ledger predicts every scrub finding, what
      [--repair] restores (primary from replica, replica by re-seal),
      which pools attach read-only degraded after a crash, and which
      allocator calls must be refused or detected before mutating
      anything.  The [Blind_primary] quirk re-enables a scrub that
      trusted the primary superblock without checksumming it. *)
end

module Structure_h : sig
  val harness :
    cfg:Nvml_arch.Config.t -> Nvml_structures.Intf.ordered_map -> Engine.packed
  (** One persistent container (in HW mode, through the full runtime)
      vs [Stdlib.Map], with crash/re-attach cycles. *)
end

module Semantics_h : sig
  val harness : cfg:Nvml_arch.Config.t -> unit -> Engine.packed
  (** Cross-layer: each op replays one corpus program under volatile,
      SW (with and without the inference plan) and HW configurations,
      checking output equality and that telemetry's per-site check
      counters agree with the static classification. *)
end

module Zipf_h : sig
  val harness : unit -> Engine.packed
  (** Cross-layer: empirical rank frequencies of the zipfian/latest
      samplers vs the closed-form Gray probabilities. *)
end

module Conc_h : sig
  val harness : cfg:Nvml_arch.Config.t -> unit -> Engine.packed
  (** The multi-core machine vs its sequential model: every op runs a
      complete contended episode (fresh cluster, seeded interleaving)
      twice, checking schedule determinism, agreement of the shared
      Conc_counter/Conc_list contents with a serial execution, FliT
      quiescence and the per-core attribution-equals-cycles
      invariant. *)
end
