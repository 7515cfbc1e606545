(** A set-associative cache (or cache-like structure) with true-LRU
    replacement, keyed by integer block addresses.  Tracks presence
    only — the functional memory lives elsewhere; this answers "would
    this access hit?" and keeps hit/miss statistics.  Used for the data
    caches, the TLBs and the POLB. *)

type t

val create : sets:int -> ways:int -> index_shift:int -> t
(** Non-power-of-two set counts index by modulo. *)

val of_size : kib:int -> ways:int -> line_shift:int -> t

val access : t -> int -> bool
(** Access the block containing the address; inserts on miss; [true] on
    hit. *)

val probe : t -> int -> bool
(** Presence test without insertion. *)

val invalidate : t -> int -> unit
(** Drop the block if present (e.g. POLB shootdown on pool detach), LRU
    stamp included, so the freed way is the next eviction victim. *)

val flush : t -> unit

(** {1 Fuzzer hooks} *)

type quirk =
  | Stale_invalidate_stamp
      (** Pre-fix behaviour: [invalidate] leaves the way's LRU stamp and
          eviction never prefers invalid ways, so a later miss evicts a
          valid line while the invalidated slot sits unused.  Only for
          the model-based fuzzer's [--break] self-test. *)

val enable_quirk : t -> quirk -> unit

val ways_of_set : t -> int -> (int * int) list
(** The (tag, stamp) pairs of one set in way order (tag -1 = invalid) —
    the observation the fuzzer checks LRU order against its model. *)

val sets : t -> int

val stats : t -> Nvml_telemetry.Stats.Hit_miss.t
(** The shared hit/miss record; the remaining accessors delegate to it. *)

val misses : t -> int
val accesses : t -> int
val hit_rate : t -> float
