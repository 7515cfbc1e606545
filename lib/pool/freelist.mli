(** A first-fit free-list allocator whose metadata lives entirely
    inside the arena it manages, addressed by byte offsets.  Used for
    both the persistent allocator (arena = a pool's NVM memory, so the
    heap state survives crashes by construction) and the volatile DRAM
    allocator.

    All allocator metadata is checksummed against media errors: block
    headers carry a CRC-16 in their spare high bits (verified on every
    dereference), and the superblock carries a CRC-32 plus an A/B
    replica in the last {!replica_size} bytes of the arena, valid while
    the arena is {e sealed} (quiescent).  The root slot is outside the
    superblock checksum — it is live application data, written through
    the data path and validated structurally by [Scrub]. *)

type access = {
  read : int64 -> int64;  (** read the word at a byte offset *)
  write : int64 -> int64 -> unit;
}

exception Corrupt_arena of string
exception Out_of_memory

val magic : int64
val off_root : int64
(** Byte offset of the root-object slot inside the arena header. *)

val heap_start : int64
val header_size : int64
val min_block : int64

val replica_size : int64
(** Bytes reserved at the top of the arena for the replica superblock;
    the usable heap is [[heap_start, capacity - replica_size)]. *)

val heap_limit : capacity:int64 -> int64
(** End of the heap: [capacity - replica_size]. *)

val init : access -> capacity:int64 -> unit
(** Lay out an empty arena, dirty (unsealed); the creator seals it once
    construction is complete. *)

val alloc : access -> int64 -> int64
(** First-fit allocation; returns the payload offset (16-aligned).
    @raise Out_of_memory when no block fits.
    @raise Corrupt_arena if a walked header fails its checksum. *)

val free : access -> int64 -> unit
(** Free a payload offset, coalescing adjacent free blocks.
    @raise Corrupt_arena on double free, foreign offsets, or a header
    that fails its checksum or structural checks (interior/stale
    pointers landing on application bytes, media rot). *)

val capacity : access -> int64
val allocated_bytes : access -> int64
val alloc_count : access -> int
val free_count : access -> int
val get_root : access -> int64
val set_root : access -> int64 -> unit

val check_invariants : access -> int64
(** Verify free-list ordering, bounds, non-overlap, and that the blocks
    tile the heap exactly — allocated blocks summing to the accounting
    word and every free block chained on the free list; returns total
    free bytes.  Every header read is checksum-verified.
    @raise Corrupt_arena on any violation. *)

(** {2 Superblock seal protocol}

    The clean/dirty protocol of a journaling filesystem's mount bit:
    {!seal} checksums the superblock and snapshots it into the replica;
    {!mark_dirty} invalidates the checksum before the first metadata
    write of a session.  A sealed arena that fails verification was
    damaged by the media; a dirty one is simply a crash image whose
    consistency the undo-log journal governs. *)

type sb_state =
  | Sealed  (** checksum present and verified *)
  | Dirty  (** in use at last power-off; trust the journal, not the CRC *)
  | Uninitialized  (** no magic, no seal: creation never completed *)
  | Corrupt of string

val seal : access -> unit
val mark_dirty : access -> unit
val superblock_state : access -> sb_state

val replica_state : access -> capacity:int64 -> sb_state
(** Verify the replica superblock.  [capacity] comes from the pool
    registry — the primary's capacity word cannot be trusted when the
    replica is being consulted. *)

val replica_intact : access -> capacity:int64 -> bool

val restore_from_replica : access -> capacity:int64 -> unit
(** Rewrite the primary superblock (except the root slot) from the
    replica.  The caller re-validates the arena structurally afterwards:
    the replica snapshot dates from the last seal, so it only describes
    the heap faithfully if the arena has not been mutated since. *)

val header_corrupt : access -> int64 -> bool
(** Whether the block header at a byte offset fails its checksum — the
    scrub engine's tolerant probe ([alloc]/[free]/[check_invariants]
    raise instead). *)

val block_size : access -> int64 -> int64
val block_allocated : access -> int64 -> bool
