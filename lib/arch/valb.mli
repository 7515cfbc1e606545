(** The VALB — virtual-address lookaside buffer (Section V-A): a small
    fully-associative range CAM mapping a virtual address to the pool
    whose mapping covers it, accelerating va2ra in the storeP unit.
    Misses are served by the VAW walking the VATB B-tree; the walker
    refills the buffer with the whole pool range. *)

type t

val create : entries:int -> t

val lookup : t -> int64 -> int option
(** The covering pool's ID on a hit. *)

val insert : t -> base:int64 -> size:int64 -> pool:int -> unit
(** VAW refill.  A pool already resident refreshes its way in place
    (dedup — one CAM way per pool); otherwise an invalid way is filled,
    and only a full CAM evicts its LRU entry. *)

val invalidate_pool : t -> int -> unit
(** Shootdown when a pool mapping disappears; resets the freed ways'
    LRU stamps so they are the next refill victims. *)

val flush : t -> unit

(** {1 Fuzzer hooks} *)

type quirk =
  | Stale_invalidate_stamp
      (** Pre-fix: [invalidate_pool]/[flush] left LRU stamps behind, so
          a later refill evicted a valid entry over an unused way. *)
  | Duplicate_insert
      (** Pre-fix: no dedup on [insert] — repeated VAW refills let one
          pool occupy several CAM ways. *)

val enable_quirk : t -> quirk -> unit
(** Only for the model-based fuzzer's [--break] self-test. *)

val dump : t -> (int64 * int64 * int * int) list
(** Every valid entry as (base, size, pool, stamp), way order — the
    observation the fuzzer checks capacity/LRU invariants against. *)

val stats : t -> Nvml_telemetry.Stats.Hit_miss.t
(** The shared hit/miss record; the remaining accessors delegate to it. *)

val misses : t -> int
val accesses : t -> int
