(** Simulator parameters, mirroring Table IV of the paper.

    Latency convention: the 1-cycle issue cost of an instruction already
    covers an L1-cache and L1-TLB hit; deeper levels charge their
    Table IV latencies as stall cycles.  Calibration notes live in
    EXPERIMENTS.md (exposed POLB hit cost, predictor sizing). *)

type t = {
  bp_table_bits : int;
  bp_history_bits : int;
  branch_miss_penalty : int;
  l1_tlb_ways : int;
  l1_tlb_entries : int;
  l2_tlb_ways : int;
  l2_tlb_entries : int;
  l2_tlb_hit_latency : int;
  page_walk_latency : int;
  line_shift : int;
  l1_ways : int;
  l1_sets : int;
  l2_ways : int;
  l2_kib : int;
  l2_latency : int;
  l3_ways : int;
  l3_kib : int;
  l3_latency : int;
  dram_latency : int;
  nvm_latency : int;
  polb_entries : int;
  polb_latency : int;
  pow_latency : int;
  valb_entries : int;
  valb_latency : int;
  vatb_node_latency : int;
  storep_fsm_entries : int;
  keep_relative_opt : bool;
      (** Section IV's "keep relative opportunistically" optimization;
          disable for the ablation study. *)
  sw_check_instrs : int;
  sw_check_branches : int;
  sw_ra2va_instrs : int;
  sw_ra2va_loads : int;
  sw_va2ra_instrs : int;
  sw_va2ra_loads : int;
  flush_latency : int;
      (** Cycles to drain one dirty 64 B line under a buffered
          persistency model (epoch/lazy); the eager model never pays
          this. *)
  fence_latency : int;
      (** Cycles to retire the fence that ends a buffered drain. *)
  timing : bool;
      (** Core speed: [true] (the default) is the cycle-accurate core,
          [false] the fast functional core ({!Cpu}).  Every machine
          built from this configuration runs at this speed; functional
          results are identical either way. *)
}

val default : t
(** The Table IV configuration. *)

val rows : t -> (string * string) list
(** Human-readable parameter dump (the Table IV reproduction). *)
