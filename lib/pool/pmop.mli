(** Persistent memory object pool (PMOP) manager — the OS side of the
    design: pool creation, mapping into the NVM half of the address
    space, detaching, the POT/VAT kernel tables behind the hardware
    lookaside buffers, and the persistent allocator.

    Pools are long-lived: their physical frames and registry entries
    survive a simulated crash; their mappings do not.  Re-opening after
    a restart maps at a {e different} base, exercising relocatability. *)

module Ptr = Nvml_core.Ptr
module Xlate = Nvml_core.Xlate

type t

exception Unknown_pool of string
exception Already_open of string

val create : Nvml_simmem.Mem.t -> t
val mem : t -> Nvml_simmem.Mem.t

val create_pool : t -> name:string -> size:int -> int
(** Create, map and initialize a pool (allocator metadata lives in the
    pool's own memory); returns its system-wide unique ID.  The fresh
    image is sealed: superblock checksum and replica valid.
    @raise Invalid_argument on duplicate names or sizes over 4 GiB. *)

val open_pool : t -> string -> int64
(** Map an existing pool at a fresh, restart-dependent base; returns
    the base.  The attach is {e verified}: a sealed image must pass its
    superblock checksum, a dirty image is trusted to the undo-log
    journal, and a corrupt or unreadable superblock attaches the pool
    {e read-only degraded} (writes raise [Media.Media_error]; see
    [Scrub] for repair) instead of propagating garbage.
    @raise Already_open if it is currently mapped.
    @raise Freelist.Corrupt_arena if the image was never initialized
    and no replica vouches for it. *)

val detach_pool : t -> int -> unit
(** Unmap; a clean detach re-seals the image first ({!seal_pool}). *)

val crash : t -> unit
(** Simulated power failure at the pool-manager level.

    Erased: all DRAM frame contents (via {!Nvml_simmem.Mem.crash} /
    {!Nvml_simmem.Physmem.crash}), every virtual mapping (so every pool
    becomes detached), and the volatile POT/VAT tables.  Survives: each
    pool's NVM frames bit for bit — including the in-pool allocator
    metadata and root slot — plus the pool registry (names, ids, frame
    lists) which models a persistent superblock.  The restart counter
    increments, so the next {!open_pool} maps at a skewed base. *)

val restarts : t -> int
val pool_base : t -> int -> int64 option
val pool_id_of_name : t -> string -> int
val pool_size : t -> int -> int
val pool_ids : t -> int list

val pool_of_va : t -> int64 -> (int * int64) option
(** VAT lookup: the (pool, base) whose mapping covers an address. *)

val provider : t -> Xlate.provider
(** The POT/VAT view handed to {!Nvml_core.Xlate}. *)

val pmalloc : t -> pool:int -> int -> Ptr.t
(** Allocate inside a pool; returns a {e relative-format} pointer. *)

val pfree : t -> Ptr.t -> unit

val set_meta_hook : t -> (pool:int -> offset:int64 -> unit) option -> unit
(** Install a hook called before every allocator-metadata write, with
    the word's pool-relative offset.  [Txn.instrument] uses it to
    undo-log freelist updates so allocation is rolled back atomically
    with the data stores of an interrupted transaction. *)

val get_root : t -> pool:int -> int64
val set_root : t -> pool:int -> int64 -> unit
val allocated_bytes : t -> pool:int -> int64
val check_pool_invariants : t -> pool:int -> int64

(** {2 Integrity and degraded mode}

    The clean/dirty seal protocol and the read-only degraded state the
    verified attach can leave a pool in.  [Scrub] drives repair. *)

val seal_pool : t -> pool:int -> unit
(** Re-seal a quiescent pool: refresh the superblock checksum and
    replica snapshot.  No-op when detached, degraded, or already
    sealed. *)

val is_degraded : t -> pool:int -> bool
val any_degraded : t -> bool

val set_pool_degraded : t -> pool:int -> bool -> unit
(** Scrub's verdict hook: force or clear the read-only degraded state. *)

val mark_pool_repaired : t -> pool:int -> unit
(** Clear degraded state and record that the (just re-sealed) image is
    clean — the scrub engine calls this after a successful repair. *)

val pool_name : t -> int -> string
val pool_frames : t -> pool:int -> int list
(** The pool's physical NVM frames, in layout order — the media-error
    ground truth for the bench coverage matrix is computed over these. *)

val scrub_access : t -> pool:int -> Freelist.access
(** Maintenance accessor: reads still traverse the media model, writes
    bypass the degraded refusal, the seal protocol, fault-injection
    events and the transaction hook.  Repair tooling only. *)

val assert_cell_writable : t -> Ptr.t -> unit
(** Refuse (with [Media.Media_error]) a data store whose destination
    cell lies in a degraded pool.  The runtime calls this on its store
    paths only while {!any_degraded}. *)

val check_root_target : t -> Ptr.t -> unit
(** Validate a pointer-shaped root before the application follows it:
    it must land inside its own pool's heap span.  Null, opaque words
    and DRAM targets pass.  @raise Media.Media_error otherwise. *)
