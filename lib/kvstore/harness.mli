(** The key-value store harness of Section VII-A: a driver mapping
    8-byte keys to 8-byte values through a pluggable index structure,
    loading an initial population and replaying a YCSB operation stream,
    measuring the run phase in the timing model.  The driver's key
    buffer lives in simulated DRAM, so volatile accesses interleave with
    the library's persistent accesses as in a real run. *)

module Cpu = Nvml_arch.Cpu
module Xlate = Nvml_core.Xlate
module Runtime = Nvml_runtime.Runtime
module Workload = Nvml_ycsb.Workload

type counter_delta = {
  dynamic_checks : int;
  abs_to_rel : int;
  rel_to_abs : int;
  volatile_escapes : int;
}

type persist_tally = {
  model : Nvml_runtime.Persist.model;
  drains : int;
  flushes : int;  (** line write-backs charged by the drains *)
  fences : int;
  buffered : int;  (** distinct dirty words buffered across the run *)
}

type result = {
  benchmark : string;
  mode : Runtime.mode;
  load : Cpu.snapshot;  (** load-phase deltas *)
  run : Cpu.snapshot;  (** run-phase deltas — what the figures report *)
  attr : Cpu.attribution;  (** run-phase cycle attribution *)
  checks : counter_delta;  (** run-phase conversion/check counts *)
  hits : int;
  misses : int;
  oplat : Nvml_runtime.Oplat.t;
      (** per-op run-phase latencies: every get/put/insert (or LL scan
          iteration) bracketed with cycle stamps, decomposed into
          base/check/translation/stall/media components, slowest ops
          retained with spans *)
  persist : persist_tally;
      (** whole-run drain traffic of the persistency model (all zero
          under [Eager]) *)
}

val region_for : name:string -> Runtime.t -> Runtime.mode -> Runtime.region
(** Where a kv run keeps its structure: DRAM in [Volatile] mode,
    otherwise a fresh lazily backed pool [name] (the harness's, a
    serving shard's, a core's under [nvml kv --cores]). *)

val stage_keys : Runtime.t -> int -> (int -> int) -> int64
(** [stage_keys rt n record]: a fresh DRAM request buffer holding the
    key of record [record j] for each of [n] ops, read back once per
    op. *)

val measure :
  ?cell:string ->
  Runtime.t ->
  benchmark:string ->
  records:int ->
  ops:int ->
  load:(unit -> unit) ->
  run:(((Nvml_runtime.Oplat.t -> string) -> unit) -> unit) ->
  result
(** The measurement protocol of every kv run: [load] and [run step]
    run in [harness.load] and [harness.run] spans, each closed by a
    drain and a snapshot.  [step op] brackets one op ([op] returns its
    name) in the recorder of [cell] (default [benchmark/mode]) and marks
    an epoch-boundary candidate; work between steps bills to the run
    phase but to no op.  The caller publishes the runtime's stats and
    fills in [hits] and [misses]. *)

val run_map :
  Nvml_structures.Intf.ordered_map ->
  mode:Runtime.mode ->
  ?cfg:Nvml_arch.Config.t ->
  ?persist:Nvml_runtime.Persist.model ->
  Workload.spec ->
  result
(** [persist] (default [Eager]) selects the machine's persistency
    model.  Under a relaxed model every run-phase operation is an epoch
    boundary candidate and the run ends with a full drain, so the
    measured cycles include the model's flush+fence µ-events. *)

val run_ll :
  mode:Runtime.mode ->
  ?cfg:Nvml_arch.Config.t ->
  ?persist:Nvml_runtime.Persist.model ->
  ?nodes:int ->
  unit ->
  result
(** The separate LL harness: build [nodes] nodes, then iterate the list
    10 times accumulating the values. *)

val run_benchmark :
  string ->
  mode:Runtime.mode ->
  ?cfg:Nvml_arch.Config.t ->
  ?persist:Nvml_runtime.Persist.model ->
  Workload.spec ->
  result
(** Run a Table III benchmark by name.  "LL" routes to {!run_ll}: it
    reads only [spec]'s record count and no op stream, so the operation
    count and key distribution change nothing there. *)
