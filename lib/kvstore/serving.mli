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
  scan_flushes : int;  (** scans that triggered a dirty flush *)
}

val hit_rate : cache_stats -> float
(** hits / (hits + misses); 0 when the cache saw no reads. *)

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
