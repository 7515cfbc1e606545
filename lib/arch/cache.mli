(** A set-associative cache (or cache-like structure) with true-LRU
    replacement, keyed by integer block addresses.  Tracks presence
    only — the functional memory lives elsewhere; this answers "would
    this access hit?" and keeps hit/miss statistics.  Used for the data
    caches, the TLBs and the POLB.

    Each set holds its tags in recency order, most recently used first,
    with the valid ways a prefix and the invalid ways the tail.  An
    access moves its block to the front; a miss fills the first invalid
    way when the set has one and otherwise evicts the last, least
    recently used line.  A hit at the front costs one array read. *)

type t

val create : sets:int -> ways:int -> index_shift:int -> t
(** Non-power-of-two set counts index by modulo.
    @raise Invalid_argument unless [sets] and [ways] are positive. *)

val of_size : kib:int -> ways:int -> line_shift:int -> t

val access : t -> int -> bool
(** Access the block containing the address; inserts on miss; [true] on
    hit. *)

val probe : t -> int -> bool
(** Presence test without insertion. *)

val invalidate : t -> int -> unit
(** Drop the block if present (e.g. POLB shootdown on pool detach); the
    less recent ways move up one, so the freed way joins the invalid
    tail and is the next one a miss in the set fills. *)

val flush : t -> unit

(** {1 Fuzzer hooks} *)

type quirk =
  | Stale_invalidate_stamp
      (** Pre-fix behaviour: [invalidate] clears the tag in place (to a
          marker, not the invalid tail's -1), so the invalid way keeps
          its recency position, and a miss evicts the last way even when
          an invalid way sits above it — a later miss evicts a valid
          line while the invalidated slot sits unused.
          Only for the model-based fuzzer's [--break] self-test. *)

val enable_quirk : t -> quirk -> unit

val ways_of_set : t -> int -> int list
(** The valid tags of one set, most recently used first — the
    observation the fuzzer checks LRU order against its model. *)

val sets : t -> int

val stats : t -> Nvml_telemetry.Stats.Hit_miss.t
(** The shared hit/miss record; the remaining accessors delegate to it. *)

val misses : t -> int
val accesses : t -> int
val hit_rate : t -> float
