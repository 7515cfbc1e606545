(* A process virtual address space: a list of segments mapping runs of
   virtual pages to runs of physical frames, a translation cache in
   front of them, plus simple bump reservations for fresh mapping bases
   in each half of the address space.

   The mappings are volatile kernel state: a simulated crash clears them;
   persistent pools are re-mapped (possibly at different bases) when they
   are re-opened after restart.

   The verification engines boot a fresh machine per crash point / fuzz
   case, so a fresh space allocates only what it uses: no cache storage
   until a refill lands in a block. *)

exception Fault of int64
(* Raised on access to an unmapped virtual address. *)

(* Translations are served from a direct-mapped software cache in front
   of the segment list: the simulator performs one translation per
   simulated access, so this cache is the hottest lookup in the whole
   system.  It has 4096 entries indexed by the low 12 vpage bits, held
   as 64 blocks of 64.  An entry packs the rest of the vpage (its tag,
   [vpage lsr 12], below 2^24 in a 48-bit space) over the frame (below
   2^38) into one int, so a hit is two array loads: the block, then
   the entry.  An empty entry is [-1], whose tag reads -1 and matches no
   vpage.  Every block starts as the shared [empty] block, which is
   never written: the first refill that lands in a block gives it a
   block of its own. *)
let tc_bits = 12
let tc_size = 1 lsl tc_bits
let block_bits = 6
let block_size = 1 lsl block_bits
let frame_bits = 38
let frame_mask = (1 lsl frame_bits) - 1
let empty : int array = Array.make block_size (-1)

module Hit_miss = Nvml_telemetry.Stats.Hit_miss

type t = {
  (* Every mapping is a [(first vpage, pages, first frame)] segment: a
     128 MiB DRAM arena is one cons cell, not 32768 page entries.  The
     list stays short (arena, kernel tables, pools); it is scanned only
     on a translation-cache miss, and each page's translation then
     refills the cache. *)
  mutable segments : (int * int * int) list;
  tc_blocks : int array array; (* cache blocks, [empty] until refilled *)
  tc_stats : Hit_miss.t; (* translation-cache hits/misses *)
  mutable dram_brk : int64; (* next fresh VA in the DRAM half *)
  mutable nvm_brk : int64; (* next fresh VA in the NVM half *)
}

let create () =
  {
    segments = [];
    tc_blocks = Array.make (tc_size / block_size) empty;
    tc_stats = Hit_miss.create ();
    (* Leave the first page unmapped so VA 0 (NULL) always faults. *)
    dram_brk = Int64.of_int Layout.page_size;
    nvm_brk = Layout.nvm_va_base;
  }

let reserve t region bytes =
  let size = Int64.of_int (Layout.pages_of_bytes bytes * Layout.page_size) in
  match region with
  | Layout.Dram ->
      let base = t.dram_brk in
      t.dram_brk <- Int64.add base size;
      if t.dram_brk >= Layout.nvm_va_base then
        invalid_arg "Vspace.reserve: DRAM half exhausted";
      base
  | Layout.Nvm ->
      let base = t.nvm_brk in
      t.nvm_brk <- Int64.add base size;
      if t.nvm_brk >= Layout.va_limit then
        invalid_arg "Vspace.reserve: NVM half exhausted";
      base

(* Skip some pages in the NVM half, so that re-opened pools land at a
   different base than before — exercising pointer relocatability. *)
let skew_nvm_brk t pages =
  t.nvm_brk <-
    Int64.add t.nvm_brk (Int64.of_int (pages * Layout.page_size))

(* Map [pages] consecutive pages onto [pages] consecutive frames in one
   O(1) segment.  Pages lie in the 48-bit space and frames below 2^38:
   a cache entry packs both into one int. *)
let map_seg t ~vpage ~pages ~first_frame =
  if
    vpage < 0 || first_frame < 0
    || vpage + pages > Layout.page_of_va Layout.va_limit
    || first_frame + pages > 1 lsl frame_bits
  then invalid_arg "Vspace.map_seg: pages or frames out of range";
  if pages > 0 then t.segments <- (vpage, pages, first_frame) :: t.segments

(* Drop [first, first + pages) from the segment list, splitting any
   segment the range lands inside. *)
let seg_unmap t ~first ~pages =
  let last = first + pages - 1 in
  if
    List.exists
      (fun (v0, n, _) -> first <= v0 + n - 1 && last >= v0)
      t.segments
  then
    t.segments <-
      List.concat_map
        (fun ((v0, n, f0) as seg) ->
          let v1 = v0 + n - 1 in
          if last < v0 || first > v1 then [ seg ]
          else
            (if first > v0 then [ (v0, first - v0, f0) ] else [])
            @
            if last < v1 then [ (last + 1, v1 - last, f0 + (last + 1 - v0)) ]
            else [])
        t.segments

(* The cache entry of [vpage] lives at [block.(slot vpage)] of block
   [tc_blocks.(block_of vpage)]; it holds [vpage]'s translation when its
   tag matches. *)
let[@inline] block_of vpage = (vpage land (tc_size - 1)) lsr block_bits
let[@inline] slot vpage = vpage land (block_size - 1)
let[@inline] tag_matches entry vpage = entry asr frame_bits = vpage lsr tc_bits

let unmap_range t ~base ~pages =
  let first = Layout.page_of_va base in
  for vpage = first to first + pages - 1 do
    (* A matching tag means a refill wrote this block, so it is never
       [empty]. *)
    let block = t.tc_blocks.(block_of vpage) and i = slot vpage in
    if tag_matches block.(i) vpage then block.(i) <- -1
  done;
  seg_unmap t ~first ~pages

(* Store [vpage]'s translation, first giving its block storage of its
   own if it is still the shared [empty] one. *)
let refill t vpage frame =
  let b = block_of vpage in
  let block = Array.unsafe_get t.tc_blocks b in
  let block =
    if block != empty then block
    else begin
      let own = Array.make block_size (-1) in
      Array.unsafe_set t.tc_blocks b own;
      own
    end
  in
  Array.unsafe_set block (slot vpage)
    (((vpage lsr tc_bits) lsl frame_bits) lor frame)

(* Frame backing the page of [va], or -1 when unmapped. *)
let frame_of_va t va =
  let vpage = Layout.page_of_va va in
  let entry =
    Array.unsafe_get
      (Array.unsafe_get t.tc_blocks (block_of vpage))
      (slot vpage)
  in
  if tag_matches entry vpage then begin
    Hit_miss.hit t.tc_stats;
    entry land frame_mask
  end
  else begin
    Hit_miss.miss t.tc_stats;
    let rec scan = function
      | [] -> -1
      | (v0, n, f0) :: rest ->
          if vpage >= v0 && vpage < v0 + n then begin
            let frame = f0 + (vpage - v0) in
            refill t vpage frame;
            frame
          end
          else scan rest
    in
    scan t.segments
  end

(* Packed translation: the physical address as an unboxed int
   ([frame * page_size + offset]), or -1 on fault.  Allocation-free:
   it is on every simulated access. *)
let translate_pa t va =
  let frame = frame_of_va t va in
  if frame < 0 then -1
  else (frame lsl Layout.page_shift) lor Layout.page_offset_of_va va

let tc_stats t = t.tc_stats

(* Crash: all virtual mappings are volatile kernel state and vanish.
   The bump pointers are reset too — a fresh process address space. *)
let crash t =
  t.segments <- [];
  Array.fill t.tc_blocks 0 (Array.length t.tc_blocks) empty;
  t.dram_brk <- Int64.of_int Layout.page_size;
  t.nvm_brk <- Layout.nvm_va_base
