(** Per-operation latency bracketing in the simulated-cycle domain.

    An {!t} wraps one experiment cell: the harness brackets every
    top-level persistent operation (kv get/put, list scan, txn) with
    {!op_begin}/{!op_end}; the recorder captures the operation's cycle
    count into an HDR-style latency recorder ({!Latency}) and
    decomposes it — via the cycle-attribution machinery
    ({!Cpu.attribution}) — into five components that sum exactly to the
    operation's cycles:

    - [base] — issue cycles plus TLB and cache-hierarchy hit latencies
      (the cost any version pays to execute the op),
    - [check] — branch misprediction penalties (the software-check
      branches of SW mode),
    - [translation] — exposed POLB latency on the address-generation
      path,
    - [stall] — storeP structural stalls (POLB/VALB operand conversions
      backing up the store unit),
    - [media] — DRAM/NVM access latencies.

    The partition is exact because {!Cpu.attribution} charges every
    cycle beyond one-per-instruction to exactly one stall source:
    [base = base + tlb + cache], [check = branch],
    [translation = xlate], [stall = storep], [media = mem] covers all
    seven fields once.  In fast functional mode ([timing = false]) an
    op's cycles equal its instructions and all non-[base] components
    are zero — the invariant still holds.

    The 8 slowest operations are retained in a bounded reservoir
    with their marker span lists, dumpable as a Chrome trace
    ({!write_slow_trace}) so a p999 outlier can be explained, not just
    counted.  Ordering is deterministic: slower first, ties broken by
    cell label then sequence number, so merging per-cell recorders in
    any order yields the same reservoir. *)

module Cpu = Nvml_arch.Cpu

type components = {
  base : int;
  check : int;
  translation : int;
  stall : int;
  media : int;
}

val components_total : components -> int

type sample = {
  op : string;  (** operation kind ("get", "put", "scan", "txn", ...) *)
  seq : int;  (** per-cell operation sequence number *)
  cell : string;  (** owning cell label *)
  cycles : int;
  comps : components;
  spans : (string * int * int) list;
      (** [(name, start, stop)] marker spans, cycles relative to op
          start; the op itself spans [(op, 0, cycles)]. *)
}

type t

val create : cell:string -> unit -> t
(** A recorder whose slow-op reservoir keeps the 8 slowest ops. *)

val op_begin : t -> Cpu.t -> unit
(** Stamp the operation start.  Nested [op_begin] is not supported —
    one operation at a time per recorder. *)

val mark : t -> Cpu.t -> string -> unit
(** Close a marker span at the current cycle: the span runs from the
    previous mark (or the op start) to now.  Up to 8 marks per op are
    kept. *)

val op_end : t -> Cpu.t -> string -> unit
(** Finish the operation named [op]: record its cycle latency and
    attribution components, and admit it to the slow-op reservoir if it
    ranks among the 8 slowest. *)

val count : t -> int
val latency : t -> Nvml_telemetry.Latency.t

val totals : t -> components
(** Component sums over all recorded operations;
    [components_total (totals t) = Latency.sum (latency t)]. *)

val slowest : t -> sample list
(** The retained slowest operations, slowest first. *)

val tail_components : t -> components
(** Component sums over the retained slowest operations — the
    per-component attribution of the tail. *)

val merge_into : dst:t -> t -> unit
(** Merge [src]'s recorder, totals and reservoir into [dst].
    Commutative up to the deterministic sample ordering, so any merge
    order yields the same state. *)

val summary_json : t -> Nvml_telemetry.Json.t
(** [{"count", "sum", "mean", "p50", "p90", "p99", "p999", "max",
    "tail": {"base", "check", "translation", "stall", "media"}}] with
    tail components as fractions of the tail's total cycles. *)

val write_slow_trace : out_channel -> t -> unit
(** Chrome [trace_event] JSON of the retained slowest ops: one thread
    per op (slowest first), timestamps in simulated cycles, component
    breakdown in the op span's args. *)
