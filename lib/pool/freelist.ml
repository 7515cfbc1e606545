(* A first-fit free-list allocator whose metadata lives entirely inside
   the arena it manages, addressed by byte offsets.  Used both for the
   persistent allocator (arena = a pool's NVM memory, so the heap state
   survives crashes by construction) and the volatile DRAM allocator.

   Arena layout (byte offsets):
     0   magic
     8   capacity (bytes)
     16  offset of first free block (0 = none)
     24  bytes currently allocated (payload + headers)
     32  root-object slot (application anchor, like pmemobj's root)
     40  allocation count (stats)
     48  free count (stats)
     56  integrity word: 0 = dirty (in use); odd = sealed, with the
         CRC-32 of the superblock words in bits 16..47
     64  start of heap
     capacity-64  replica superblock: a copy of words 0..56 (minus the
         root slot, which is live application data) taken at seal time

   Block layout: a 16-byte header (word 0: block size in bytes including
   the header in bits 1..47, bit 0 = allocated flag, and a CRC-16 of the
   low 48 bits in bits 48..63; word 1: next free offset, meaningful when
   free) followed by the payload.  Sizes are multiples of 16 so payloads
   are 16-aligned; pools are capped at 4 GiB, so 47 bits of size are
   spare room and the header checksum costs no extra space or writes.

   Integrity model: every header write is checksum-tagged and every
   header read verified, so a media bit flip, a stale pointer, or
   application bytes masquerading as a header are all rejected instead
   of corrupting the accounting.  The superblock checksum is only valid
   while the arena is sealed (quiescent): the pool manager marks the
   arena dirty before the first metadata write of a session and re-seals
   on detach, the same clean/dirty protocol as a journaling filesystem's
   mount bit.  The root slot is deliberately outside the superblock
   checksum — it is written through the data path, not the allocator. *)

module Crc = Nvml_media.Crc

type access = {
  read : int64 -> int64; (* read the word at a byte offset in the arena *)
  write : int64 -> int64 -> unit;
}

let magic = 0x504D4F50L (* "PMOP" *)
let off_magic = 0L
let off_capacity = 8L
let off_free_head = 16L
let off_allocated = 24L
let off_root = 32L
let off_alloc_count = 40L
let off_free_count = 48L
(* The seal/checksum word: 0 while the arena is dirty (in use), odd
   with the superblock CRC-32 in bits 16..47 when sealed. *)
let off_integrity = 56L
let heap_start = 64L
let header_size = 16L
let min_block = 32L
let replica_size = 64L

exception Corrupt_arena of string
exception Out_of_memory

let ( +! ) = Int64.add
let ( -! ) = Int64.sub

let heap_limit ~capacity = capacity -! replica_size

(* --- checksummed block headers --------------------------------------- *)

let header_payload_mask = 0x0000FFFFFFFFFFFFL

let tag_header w48 =
  Int64.logor (Int64.shift_left (Int64.of_int (Crc.crc16_low48 w48)) 48) w48

let header_fault w =
  let lo = Int64.logand w header_payload_mask in
  if Int64.to_int (Int64.shift_right_logical w 48) = Crc.crc16_low48 lo then None
  else Some lo

(* Verified header read: the CRC rejects media rot and application
   bytes alike before the size is believed.  Raises [Corrupt_arena] —
   callers that want to keep walking past damage (the scrub engine) use
   [verify_header] instead. *)
let block_size_word a b =
  let w = a.read b in
  match header_fault w with
  | None -> Int64.logand w header_payload_mask
  | Some _ ->
      raise
        (Corrupt_arena (Fmt.str "block header at %Ld fails its checksum" b))

let header_corrupt a b = header_fault (a.read b) <> None

let block_size a b = Int64.logand (block_size_word a b) (Int64.lognot 1L)
let block_allocated a b = Int64.logand (block_size_word a b) 1L = 1L
let set_block a b ~size ~allocated =
  a.write b (tag_header (if allocated then Int64.logor size 1L else size))
let block_next a b = a.read (b +! 8L)
let set_block_next a b next = a.write (b +! 8L) next

let capacity a = a.read off_capacity
let allocated_bytes a = a.read off_allocated
let get_root a = a.read off_root
let set_root a v = a.write off_root v

let is_initialized a = Int64.equal (a.read off_magic) magic

(* --- superblock seal / verify / replica ------------------------------ *)

(* Words covered by the superblock checksum, in checksum order.  The
   root slot (32) is excluded: it is live application data written
   through the data path, checked structurally by the scrub engine
   instead.  The integrity word itself (56) is excluded since it holds
   the checksum. *)
let sb_covered =
  [ off_magic; off_capacity; off_free_head; off_allocated;
    off_alloc_count; off_free_count ]

(* 0 is reserved to mean "dirty", so a checksum of 0 is remapped. *)
let sb_crc_of values =
  match Crc.crc32_words values with 0 -> 0xFFFFFFFF | c -> c

let integrity_word_of values =
  Int64.logor (Int64.shift_left (Int64.of_int (sb_crc_of values)) 16) 1L

let replica_base a = capacity a -! replica_size

let seal a =
  let values = List.map a.read sb_covered in
  let iw = integrity_word_of values in
  a.write off_integrity iw;
  let rb = replica_base a in
  List.iter2 (fun off v -> a.write (rb +! off) v) sb_covered values;
  a.write (rb +! off_integrity) iw

let mark_dirty a = a.write off_integrity 0L

type sb_state =
  | Sealed  (** checksum present and verified *)
  | Dirty  (** in use at last power-off; trust the journal, not the CRC *)
  | Uninitialized  (** no magic, no seal: creation never completed *)
  | Corrupt of string

let verify_at a ~base =
  let iw = a.read (base +! off_integrity) in
  if Int64.equal iw 0L then
    if Int64.equal (a.read (base +! off_magic)) magic then Dirty
    else Uninitialized
  else if Int64.logand iw 1L <> 1L then
    Corrupt (Fmt.str "malformed integrity word %Lx" iw)
  else
    let values = List.map (fun off -> a.read (base +! off)) sb_covered in
    let want = integrity_word_of values in
    if not (Int64.equal iw want) then Corrupt "superblock checksum mismatch"
    else if not (Int64.equal (a.read (base +! off_magic)) magic) then
      Corrupt "bad magic under a valid checksum"
    else Sealed

let superblock_state a = verify_at a ~base:0L

(* The replica is only consulted when the primary is unreadable, so its
   capacity word cannot be taken from the (possibly corrupt) primary:
   the caller supplies the registry's capacity. *)
let replica_state a ~capacity:cap =
  let base = cap -! replica_size in
  match verify_at a ~base with
  | Sealed ->
      if Int64.equal (a.read (base +! off_capacity)) cap then Sealed
      else Corrupt "replica capacity disagrees with the pool registry"
  | s -> s

let replica_intact a ~capacity =
  match replica_state a ~capacity with Sealed -> true | _ -> false

let restore_from_replica a ~capacity:cap =
  let base = cap -! replica_size in
  List.iter (fun off -> a.write off (a.read (base +! off))) sb_covered;
  a.write off_integrity (a.read (base +! off_integrity))

let init a ~capacity =
  let capacity = Int64.logand capacity (Int64.lognot 15L) in
  if capacity < heap_start +! min_block +! replica_size then
    invalid_arg "Freelist.init: arena too small";
  a.write off_magic magic;
  a.write off_capacity capacity;
  a.write off_allocated 0L;
  a.write off_root 0L;
  a.write off_alloc_count 0L;
  a.write off_free_count 0L;
  a.write off_integrity 0L;
  let heap_end = heap_limit ~capacity in
  set_block a heap_start ~size:(heap_end -! heap_start) ~allocated:false;
  set_block_next a heap_start 0L;
  a.write off_free_head heap_start

let round_to_16 n = Int64.logand (n +! 15L) (Int64.lognot 15L)

(* First-fit allocation.  Returns the payload offset. *)
let alloc a (size : int64) : int64 =
  if size <= 0L then invalid_arg "Freelist.alloc: non-positive size";
  let need = round_to_16 size +! header_size in
  let rec walk ~prev cur =
    if Int64.equal cur 0L then raise Out_of_memory
    else
      let cur_size = block_size a cur in
      if cur_size >= need then begin
        let next = block_next a cur in
        let taken =
          if cur_size -! need >= min_block then begin
            (* Split: remainder becomes a free block in place of [cur]. *)
            let rem = cur +! need in
            set_block a rem ~size:(cur_size -! need) ~allocated:false;
            set_block_next a rem next;
            (match prev with
            | None -> a.write off_free_head rem
            | Some p -> set_block_next a p rem);
            need
          end
          else begin
            (match prev with
            | None -> a.write off_free_head next
            | Some p -> set_block_next a p next);
            cur_size
          end
        in
        set_block a cur ~size:taken ~allocated:true;
        a.write off_allocated (allocated_bytes a +! taken);
        a.write off_alloc_count (a.read off_alloc_count +! 1L);
        cur +! header_size
      end
      else walk ~prev:(Some cur) (block_next a cur)
  in
  walk ~prev:None (a.read off_free_head)

(* Free with coalescing of adjacent blocks; the free list is kept sorted
   by offset so neighbours are found during insertion. *)
let free a (payload : int64) : unit =
  let b = payload -! header_size in
  let heap_end = heap_limit ~capacity:(capacity a) in
  if b < heap_start || b >= heap_end then
    raise (Corrupt_arena (Fmt.str "free: offset %Ld out of arena" payload));
  if not (block_allocated a b) then
    raise (Corrupt_arena (Fmt.str "double free at offset %Ld" payload));
  let size = block_size a b in
  (* The checksum already rejects application bytes posing as a header;
     these structural checks stay as a second line of defence against
     the 2^-16 collision and as documentation of what a header is. *)
  if size < min_block || Int64.rem size 16L <> 0L || b +! size > heap_end then
    raise
      (Corrupt_arena
         (Fmt.str "free: block at %Ld has corrupt size %Ld" payload size));
  a.write off_allocated (allocated_bytes a -! size);
  a.write off_free_count (a.read off_free_count +! 1L);
  set_block a b ~size ~allocated:false;
  (* Find insertion point: prev < b < cur. *)
  let rec find ~prev cur =
    if Int64.equal cur 0L || cur > b then (prev, cur)
    else find ~prev:(Some cur) (block_next a cur)
  in
  let prev, next = find ~prev:None (a.read off_free_head) in
  (* Link in. *)
  set_block_next a b next;
  (match prev with
  | None -> a.write off_free_head b
  | Some p -> set_block_next a p b);
  (* Coalesce with successor. *)
  (if not (Int64.equal next 0L) && Int64.equal (b +! block_size a b) next then begin
     set_block a b ~size:(block_size a b +! block_size a next)
       ~allocated:false;
     set_block_next a b (block_next a next)
   end);
  (* Coalesce with predecessor. *)
  match prev with
  | Some p when Int64.equal (p +! block_size a p) b ->
      set_block a p ~size:(block_size a p +! block_size a b) ~allocated:false;
      set_block_next a p (block_next a b)
  | Some _ | None -> ()

(* Walk the free list and verify structural invariants; returns the
   total free bytes.  Used by tests and by the quickcheck suite. *)
let check_invariants a : int64 =
  if not (is_initialized a) then raise (Corrupt_arena "bad magic");
  let heap_end = heap_limit ~capacity:(capacity a) in
  let rec walk prev cur total =
    if Int64.equal cur 0L then total
    else begin
      if cur < heap_start || cur >= heap_end then
        raise (Corrupt_arena (Fmt.str "free block %Ld out of arena" cur));
      (match prev with
      | Some p ->
          if cur <= p then raise (Corrupt_arena "free list not sorted");
          if p +! block_size a p > cur then
            raise (Corrupt_arena "overlapping free blocks")
      | None -> ());
      if block_allocated a cur then
        raise (Corrupt_arena "allocated block on free list");
      let size = block_size a cur in
      if size < min_block || Int64.rem size 16L <> 0L then
        raise (Corrupt_arena "bad free block size");
      walk (Some cur) (block_next a cur) (total +! size)
    end
  in
  let free_total = walk None (a.read off_free_head) 0L in
  if free_total +! allocated_bytes a <> heap_end -! heap_start then
    raise
      (Corrupt_arena
         (Fmt.str "accounting mismatch: free %Ld + allocated %Ld <> heap %Ld"
            free_total (allocated_bytes a) (heap_end -! heap_start)));
  (* Whole-heap walk: blocks must tile [heap_start, heap_end) exactly,
     every free block must be one the free-list walk above visited, and
     the allocated blocks must sum to the header's accounting word (the
     check above trusts that word; this one recomputes it). *)
  let free_set = Hashtbl.create 16 in
  let rec collect cur =
    if not (Int64.equal cur 0L) then begin
      Hashtbl.replace free_set cur ();
      collect (block_next a cur)
    end
  in
  collect (a.read off_free_head);
  let rec tile b alloc_sum free_seen =
    if Int64.equal b heap_end then (alloc_sum, free_seen)
    else if b > heap_end then
      raise (Corrupt_arena (Fmt.str "block at %Ld overruns the arena" b))
    else begin
      let size = block_size a b in
      if size < min_block || Int64.rem size 16L <> 0L || b +! size > heap_end
      then
        raise (Corrupt_arena (Fmt.str "block at %Ld has corrupt size %Ld" b size));
      if block_allocated a b then tile (b +! size) (alloc_sum +! size) free_seen
      else begin
        if not (Hashtbl.mem free_set b) then
          raise
            (Corrupt_arena (Fmt.str "free block at %Ld not on the free list" b));
        tile (b +! size) alloc_sum (free_seen + 1)
      end
    end
  in
  let alloc_sum, free_seen = tile heap_start 0L 0 in
  if alloc_sum <> allocated_bytes a then
    raise
      (Corrupt_arena
         (Fmt.str "allocated accounting %Ld but blocks sum to %Ld"
            (allocated_bytes a) alloc_sum));
  if free_seen <> Hashtbl.length free_set then
    raise (Corrupt_arena "free list references blocks outside the heap walk");
  free_total
