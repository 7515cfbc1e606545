(* A process virtual address space: a list of segments mapping runs of
   virtual pages to runs of physical frames, plus simple bump
   reservations for fresh mapping bases in each half of the address
   space.

   The mappings are volatile kernel state: a simulated crash clears them;
   persistent pools are re-mapped (possibly at different bases) when they
   are re-opened after restart. *)

exception Fault of int64
(* Raised on access to an unmapped virtual address. *)

(* Translations are served from a direct-mapped software cache in front
   of the segment list: the simulator performs one translation
   per simulated access, so this cache is the hottest lookup in the
   whole system.  Entries are (vpage, frame) pairs indexed by the low
   vpage bits; [tc_vpage.(i) = -1] marks an empty slot. *)
let tc_bits = 12
let tc_size = 1 lsl tc_bits

module Hit_miss = Nvml_telemetry.Stats.Hit_miss

type t = {
  (* Every mapping is a [(first vpage, pages, first frame)] segment: a
     128 MiB DRAM arena is one cons cell, not 32768 page entries.  The
     verification engines boot a fresh machine per crash point / fuzz
     case, so mapping cost sits on their hot path.  The list stays short
     (arena, kernel tables, pools); it is scanned only on a
     translation-cache miss, and each page's translation then refills
     the cache. *)
  mutable segments : (int * int * int) list;
  tc_vpage : int array; (* translation-cache tags, -1 = empty *)
  tc_frame : int array;
  tc_stats : Hit_miss.t; (* translation-cache hits/misses *)
  mutable dram_brk : int64; (* next fresh VA in the DRAM half *)
  mutable nvm_brk : int64; (* next fresh VA in the NVM half *)
}

let create () =
  {
    segments = [];
    tc_vpage = Array.make tc_size (-1);
    tc_frame = Array.make tc_size 0;
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
   O(1) segment. *)
let map_seg t ~vpage ~pages ~first_frame =
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

let unmap_range t ~base ~pages =
  let first = Layout.page_of_va base in
  for vpage = first to first + pages - 1 do
    let idx = vpage land (tc_size - 1) in
    if t.tc_vpage.(idx) = vpage then t.tc_vpage.(idx) <- -1
  done;
  seg_unmap t ~first ~pages

(* Frame backing the page of [va], or -1 when unmapped. *)
let frame_of_va t va =
  let vpage = Layout.page_of_va va in
  let idx = vpage land (tc_size - 1) in
  if Array.unsafe_get t.tc_vpage idx = vpage then begin
    Hit_miss.hit t.tc_stats;
    Array.unsafe_get t.tc_frame idx
  end
  else begin
    Hit_miss.miss t.tc_stats;
    let rec scan = function
      | [] -> -1
      | (v0, n, f0) :: rest ->
          if vpage >= v0 && vpage < v0 + n then begin
            let frame = f0 + (vpage - v0) in
            Array.unsafe_set t.tc_vpage idx vpage;
            Array.unsafe_set t.tc_frame idx frame;
            frame
          end
          else scan rest
    in
    scan t.segments
  end

(* Packed translation: the physical address as an unboxed int
   ([frame * page_size + offset]), or -1 on fault.  The hot path —
   avoids the option/tuple allocations of [translate]. *)
let translate_pa t va =
  let frame = frame_of_va t va in
  if frame < 0 then -1
  else (frame lsl Layout.page_shift) lor Layout.page_offset_of_va va

let translate t va =
  let frame = frame_of_va t va in
  if frame < 0 then None else Some (frame, Layout.page_offset_of_va va)

let translate_exn t va =
  let frame = frame_of_va t va in
  if frame < 0 then raise (Fault va)
  else (frame, Layout.page_offset_of_va va)

let is_mapped t va = translate t va <> None

let tc_stats t = t.tc_stats

(* Crash: all virtual mappings are volatile kernel state and vanish.
   The bump pointers are reset too — a fresh process address space. *)
let crash t =
  t.segments <- [];
  Array.fill t.tc_vpage 0 tc_size (-1);
  t.dram_brk <- Int64.of_int Layout.page_size;
  t.nvm_brk <- Layout.nvm_va_base
