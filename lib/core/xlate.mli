(** Translation between the two pointer formats.

    [ra2va] resolves a relative pointer to the virtual address of its
    target through the POT (pool ID → current base); [va2ra] finds the
    pool covering a virtual address through the VAT (range → pool) and
    re-expresses the address relative to it.  The pool manager supplies
    both tables as a first-class {!provider}. *)

type provider = {
  pool_base : int -> int64 option;
      (** POT lookup: pool ID → mapped virtual base, [None] if the pool
          is detached. *)
  pool_of_va : int64 -> (int * int64) option;
      (** VAT lookup: virtual address → (pool ID, pool base) of the
          covering pool, [None] if the address is in no pool. *)
  generation : int ref;
      (** The provider must bump this on every mapping change (pool
          create, open, detach, crash).  Translation memoizes repeated
          [pool_base] lookups and uses the generation to invalidate, so
          a stale bump means stale translations. *)
}

(** Conversion and check accounting (reported in Table V). *)
type counters = {
  mutable ra2va : int;  (** relative → absolute conversions *)
  mutable va2ra : int;  (** absolute → relative conversions *)
  mutable dynamic_checks : int;  (** software format/location checks *)
  mutable volatile_escapes : int;
      (** DRAM virtual addresses stored into NVM unconverted *)
}

type t

val make : provider -> t
val counters : t -> counters

exception Pool_detached of int
(** [ra2va] on a pointer whose pool is no longer mapped (Fig. 10). *)

exception Not_in_pool of int64
(** [va2ra] on an NVM virtual address not covered by any pool. *)

val ra2va : t -> Ptr.t -> int64
(** Relative → virtual.  Virtual-format input (including NULL) passes
    through unchanged.
    @raise Pool_detached if the pool is unmapped. *)

val va2ra : t -> Ptr.t -> Ptr.t
(** Virtual → relative.  Relative input and NULL pass through.  A DRAM
    virtual address has no relative form and is returned unchanged,
    counted as a volatile escape.
    @raise Not_in_pool on an NVM address outside every pool. *)
