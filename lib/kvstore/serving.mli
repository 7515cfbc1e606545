(** The serving engine: the Section VII harness grown to production
    shape — records sharded across many pools by key hash (each shard
    an independent share-nothing simulation cell with its own runtime,
    pool, allocator and superblock), a batching front-end that
    amortizes runtime entry across a batch of requests, and an optional
    bounded-LRU DRAM front cache with write-back to NVM in the style of
    NVCache.

    Determinism: shards are share-nothing cells merged in shard-index
    order, so a parallel runner produces reports byte-identical to a
    sequential one, and a cache-enabled run drains all dirty entries
    before detach so the persistent contents (see {!type-shard.digest})
    are identical to a cache-disabled run. *)

type config = {
  structure : string;  (** index structure name, as in {!Nvml_structures.Registry} *)
  mode : Nvml_runtime.Runtime.mode;
  spec : Nvml_ycsb.Workload.spec;
  shards : int;
  batch : int;  (** requests per runtime entry; 1 = no batching *)
  front_cache : int;
      (** total cache entries across all shards; 0 = off.  Each shard gets
          [front_cache / shards] entries, rounded down, so any other value
          must be at least [shards]. *)
  cfg : Nvml_arch.Config.t;
}

val default_config :
  ?structure:string ->
  ?mode:Nvml_runtime.Runtime.mode ->
  ?cfg:Nvml_arch.Config.t ->
  ?shards:int ->
  ?batch:int ->
  ?front_cache:int ->
  Nvml_ycsb.Workload.spec ->
  config

type cache_stats = {
  hits : int;
  misses : int;
  writebacks : int;  (** dirty entries written back (evict/scan/drain) *)
  evictions : int;
  scan_flushes : int;
      (** flush calls made by scans: one per (scan, shard it touches),
          whether or not any entry was dirty *)
}

val hit_rate : cache_stats -> float
(** hits / (hits + misses); 0 when the cache saw no reads. *)

(** A shard's DRAM front cache: a bounded LRU over [capacity] slots
    whose values are mirrored in a simulated-DRAM slab, so probes and
    fills are charged to the runtime's core.  Writes stay in the cache
    (dirty) until their slot is evicted or a flush writes them back
    through [write_back]. *)
module Fcache : sig
  type t

  val create :
    Nvml_runtime.Runtime.t ->
    int ->
    write_back:(key:int64 -> value:int64 -> unit) ->
    t
  (** [create rt capacity ~write_back] maps the slab in [rt]'s DRAM.
      @raise Invalid_argument when [capacity] is below 1. *)

  val get : t -> find:(int64 -> int64 option) -> int64 -> int64 option
  (** A hit returns the cached value.  A miss returns [find key] and
      caches a found value clean, evicting the LRU entry when full (a
      dirty victim is written back first). *)

  val put : t -> key:int64 -> value:int64 -> unit
  (** Cache [value] dirty, evicting as {!get} does. *)

  val scan_flush : t -> unit
  (** Count one scan flush, then {!drain}. *)

  val drain : t -> unit
  (** Write every dirty entry back, in ascending slot order, and mark
      it clean.  Costs the dirty entries, not the capacity. *)

  val stats : t -> cache_stats
end

type shard = {
  index : int;
  records : int;  (** records loaded into this shard *)
  ops : int;  (** requests dispatched to this shard *)
  size : int;  (** final structure size *)
  found : int;
  missing : int;
  load : Nvml_arch.Cpu.snapshot;
  run : Nvml_arch.Cpu.snapshot;
  cache : cache_stats;
  digest : int64;  (** order-independent digest of the final contents *)
  oplat : Nvml_runtime.Oplat.t;
}

type t = {
  structure : string;
  mode : Nvml_runtime.Runtime.mode;
  spec : Nvml_ycsb.Workload.spec;
  shards : int;
  batch : int;
  front_cache : int;  (** entries that ran: [shards * (front_cache / shards)] *)
  per_shard : shard list;  (** in shard-index order *)
  records : int;
  ops : int;  (** total requests; scan sub-gets count individually *)
  found : int;
  missing : int;
  size : int;
  load_cycles_max : int;
  run_cycles_max : int;  (** service time — shards run in parallel *)
  run_cycles_total : int;
  cache : cache_stats;
  digest : int64;  (** commutative combine of the per-shard digests *)
  oplat : Nvml_runtime.Oplat.t;  (** merged across shards, in shard order *)
}

val clock_hz : float
(** The simulated core clock implied by [Config.default] (DRAM at 120
    cycles = 45 ns, i.e. ~2.67 GHz); used to turn deterministic cycle
    counts into an ops/sec figure. *)

val ops_per_sec : t -> float
(** [ops / (run_cycles_max / clock_hz)] — deterministic simulated
    throughput (in fast functional mode, cycles are instruction
    counts). *)

val shard_of_key : shards:int -> int64 -> int
(** The shard a key lives on: [scramble key mod shards]. *)

val run : ?par:((unit -> shard) list -> shard list) -> config -> t
(** Run the configured serving workload.  [par] executes the
    share-nothing shard cells ([Pool.run pool] from bench); the default
    runs them sequentially.  Results are merged in shard-index order,
    so the report is byte-identical for any runner.  Publishes
    [serving.*] telemetry counters when telemetry is enabled.
    @raise Invalid_argument when [shards] or [batch] is below 1, or
    [front_cache] is negative or between 1 and [shards - 1]. *)
