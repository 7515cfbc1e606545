(* Tests for the simulated memory substrate: layout constants, physical
   frames, the page table, word accessors, and crash semantics. *)

module Layout = Nvml_simmem.Layout
module Physmem = Nvml_simmem.Physmem
module Vspace = Nvml_simmem.Vspace
module Mem = Nvml_simmem.Mem
module Harnesses = Nvml_modelcheck.Harnesses

let check_i64 = Alcotest.(check int64)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- layout ---------------------------------------------------------- *)

let test_layout_regions () =
  check_bool "VA 0x1000 is DRAM" false (Layout.is_nvm_va 0x1000L);
  check_bool "NVM base is NVM" true (Layout.is_nvm_va Layout.nvm_va_base);
  check_bool "last DRAM VA" false
    (Layout.is_nvm_va (Int64.sub Layout.nvm_va_base 1L));
  check_bool "last NVM VA" true
    (Layout.is_nvm_va (Int64.sub Layout.va_limit 1L))

let test_layout_constants () =
  check_i64 "NVM half starts at 2^47" (Int64.shift_left 1L 47)
    Layout.nvm_va_base;
  check_i64 "VA limit is 2^48" (Int64.shift_left 1L 48) Layout.va_limit;
  check_int "page is 4 KiB" 4096 Layout.page_size;
  check_int "512 words per page" 512 Layout.words_per_page

let test_layout_pages () =
  check_int "page of 0x2345" 2 (Layout.page_of_va 0x2345L);
  check_int "offset of 0x2345" 0x345 (Layout.page_offset_of_va 0x2345L);
  check_i64 "va of page 2" 0x2000L (Layout.va_of_page 2);
  check_int "pages_of_bytes rounds up" 2 (Layout.pages_of_bytes 4097);
  check_int "pages_of_bytes exact" 1 (Layout.pages_of_bytes 4096);
  check_bool "aligned" true (Layout.is_word_aligned 0x10L);
  check_bool "unaligned" false (Layout.is_word_aligned 0x11L)

(* --- physical memory -------------------------------------------------- *)

let test_phys_regions () =
  let pm = Physmem.create () in
  let d = Physmem.alloc_frame pm Layout.Dram in
  let n = Physmem.alloc_frame pm Layout.Nvm in
  check_bool "dram frame classified" true
    (Layout.equal_region (Physmem.region_of_frame d) Layout.Dram);
  check_bool "nvm frame classified" true
    (Layout.equal_region (Physmem.region_of_frame n) Layout.Nvm)

let test_phys_rw () =
  let pm = Physmem.create () in
  let f = Physmem.alloc_frame pm Layout.Dram in
  Physmem.write_word pm ~frame:f ~word_index:7 42L;
  check_i64 "read back" 42L (Physmem.read_word pm ~frame:f ~word_index:7);
  check_i64 "other words zero" 0L (Physmem.read_word pm ~frame:f ~word_index:8);
  (* A word index past the frame raises rather than aliasing into the
     next frame's first word. *)
  let next = Physmem.alloc_frame pm Layout.Dram in
  List.iter
    (fun word_index ->
      match Physmem.write_word pm ~frame:f ~word_index 9L with
      | () -> Alcotest.failf "word index %d accepted" word_index
      | exception Invalid_argument _ -> ())
    [ Layout.words_per_page; -1 ];
  (match Physmem.read_word pm ~frame:f ~word_index:Layout.words_per_page with
  | _ -> Alcotest.fail "read past the frame accepted"
  | exception Invalid_argument _ -> ());
  check_i64 "next frame untouched" 0L
    (Physmem.read_word pm ~frame:next ~word_index:0)

let test_phys_crash () =
  let pm = Physmem.create () in
  let d = Physmem.alloc_frame pm Layout.Dram in
  let n = Physmem.alloc_frame pm Layout.Nvm in
  Physmem.write_word pm ~frame:d ~word_index:0 1L;
  Physmem.write_word pm ~frame:n ~word_index:0 2L;
  Physmem.crash pm;
  check_bool "dram frame gone" false (Physmem.frame_exists pm d);
  check_bool "nvm frame survives" true (Physmem.frame_exists pm n);
  check_i64 "nvm content survives" 2L
    (Physmem.read_word pm ~frame:n ~word_index:0)

let test_phys_crash_recycles_dram_frames () =
  let pm = Physmem.create () in
  let d1 = Physmem.alloc_frame pm Layout.Dram in
  let d2 = Physmem.alloc_frame pm Layout.Dram in
  let n1 = Physmem.alloc_frame pm Layout.Nvm in
  Physmem.write_word pm ~frame:n1 ~word_index:0 7L;
  Physmem.crash pm;
  (* DRAM contents are gone, so their frame IDs must be reusable: a
     crash/recover loop must not leak the DRAM frame namespace. *)
  check_int "first DRAM frame recycled" d1 (Physmem.alloc_frame pm Layout.Dram);
  check_int "second DRAM frame recycled" d2 (Physmem.alloc_frame pm Layout.Dram);
  (* NVM frames survive the crash, so that counter must NOT rewind. *)
  let n2 = Physmem.alloc_frame pm Layout.Nvm in
  check_bool "NVM counter advances past survivor" true (n2 > n1);
  check_bool "survivor still exists" true (Physmem.frame_exists pm n1)

(* The data-path contract: once a frame is backed, a packed-address
   store is array indexing and allocates nothing, whichever frame the
   previous access touched.  A small slack absorbs the boxed
   [Gc.minor_words] reads themselves. *)
let test_phys_write_pa_allocation_free () =
  let pm = Physmem.create () in
  let first = Physmem.alloc_frame_run pm Layout.Dram 64 in
  let pa i = ((first + (i land 63)) lsl Layout.page_shift) lor ((i land 511) lsl 3) in
  for i = 0 to 63 do
    Physmem.write_pa pm (pa i) 0L
  done;
  let n = 100_000 in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    Physmem.write_pa pm (pa i) 7L
  done;
  let words = Gc.minor_words () -. before in
  if words >= 64.0 then
    Alcotest.failf "write_pa allocated %.0f minor words over %d calls" words n

(* A fresh machine costs what it touches: [Mem.create] puts no word
   straight on the major heap (the translation cache starts as shared
   empty blocks), and a translation-cache hit allocates nothing.  Words
   promoted by a minor collection are not counted. *)
let test_mem_boot_allocation_free () =
  let direct_major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let before = direct_major () in
  let m = Mem.create () in
  let words = direct_major () -. before in
  if words > 0.0 then
    Alcotest.failf "Mem.create put %.0f words on the major heap" words;
  let base = Mem.map_fresh m Layout.Dram (64 * Layout.page_size) in
  let vas =
    Array.init 64 (fun i ->
        Int64.add base (Int64.of_int ((i * Layout.page_size) + (8 * i))))
  in
  Array.iter (fun va -> ignore (Mem.translate_pa m va)) vas;
  let stats = Vspace.tc_stats (Mem.vspace m) in
  let misses = Nvml_telemetry.Stats.Hit_miss.misses stats in
  let n = 100_000 in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    ignore (Sys.opaque_identity (Mem.translate_pa m vas.(i land 63)))
  done;
  let words = Gc.minor_words () -. before in
  check_int "every translation hit" misses
    (Nvml_telemetry.Stats.Hit_miss.misses stats);
  if words >= 64.0 then
    Alcotest.failf "translate_pa allocated %.0f minor words over %d hits" words
      n

(* --- virtual space ---------------------------------------------------- *)

let test_vspace_reserve_halves () =
  let vs = Vspace.create () in
  let d = Vspace.reserve vs Layout.Dram 8192 in
  let n = Vspace.reserve vs Layout.Nvm 8192 in
  check_bool "dram reservation in dram half" false (Layout.is_nvm_va d);
  check_bool "nvm reservation in nvm half" true (Layout.is_nvm_va n);
  let d2 = Vspace.reserve vs Layout.Dram 4096 in
  check_bool "reservations do not overlap" true (d2 >= Int64.add d 8192L)

let test_vspace_map_translate () =
  let vs = Vspace.create () in
  Vspace.map_seg vs ~vpage:5 ~pages:1 ~first_frame:99;
  let pa = Vspace.translate_pa vs 0x5123L in
  check_int "frame" 99 (pa lsr Layout.page_shift);
  check_int "offset" 0x123 (pa land (Layout.page_size - 1));
  check_int "unmapped faults" (-1) (Vspace.translate_pa vs 0x9000L)

let test_vspace_translate_pa () =
  let vs = Vspace.create () in
  Vspace.map_seg vs ~vpage:5 ~pages:1 ~first_frame:99;
  check_int "packed physical address" ((99 lsl Layout.page_shift) lor 0x123)
    (Vspace.translate_pa vs 0x5123L);
  check_int "unmapped packs to -1" (-1) (Vspace.translate_pa vs 0x9000L);
  (* The direct-mapped translation cache must be coherent with unmap. *)
  ignore (Vspace.translate_pa vs 0x5123L);
  Vspace.unmap_range vs ~base:0x5000L ~pages:1;
  check_int "stale cache entry invalidated" (-1) (Vspace.translate_pa vs 0x5123L)

let test_vspace_fault () =
  let m = Mem.create () in
  check_int "unmapped packs to -1" (-1)
    (Vspace.translate_pa (Mem.vspace m) 0x4000L);
  Alcotest.check_raises "fault on unmapped" (Vspace.Fault 0x4000L) (fun () ->
      ignore (Mem.translate_pa_exn m 0x4000L))

let test_vspace_unmap () =
  let vs = Vspace.create () in
  Vspace.map_seg vs ~vpage:0x10 ~pages:3 ~first_frame:1;
  check_bool "mapped" true (Vspace.translate_pa vs 0x12000L >= 0);
  Vspace.unmap_range vs ~base:0x10000L ~pages:3;
  check_int "unmapped" (-1) (Vspace.translate_pa vs 0x12000L)

(* --- combined memory --------------------------------------------------- *)

let test_mem_words () =
  let m = Mem.create () in
  let base = Mem.map_fresh m Layout.Dram 4096 in
  Mem.write_word m base 123L;
  Mem.write_word m (Int64.add base 8L) (-1L);
  check_i64 "word 0" 123L (Mem.read_word m base);
  check_i64 "word 1" (-1L) (Mem.read_word m (Int64.add base 8L))

let test_mem_unaligned () =
  let m = Mem.create () in
  let base = Mem.map_fresh m Layout.Dram 4096 in
  Alcotest.check_raises "unaligned word access"
    (Mem.Unaligned (Int64.add base 3L)) (fun () ->
      ignore (Mem.read_word m (Int64.add base 3L)))

let test_mem_crash_drops_dram_keeps_nvm () =
  let m = Mem.create () in
  let d = Mem.map_fresh m Layout.Dram 4096 in
  let n = Mem.map_fresh m Layout.Nvm 4096 in
  Mem.write_word m d 7L;
  Mem.write_word m n 9L;
  let n_frame = Mem.translate_pa_exn m n lsr Layout.page_shift in
  Mem.crash m;
  let vs = Mem.vspace m in
  check_int "dram mapping gone" (-1) (Vspace.translate_pa vs d);
  check_int "nvm mapping gone too" (-1) (Vspace.translate_pa vs n);
  (* Remap the surviving NVM frame at a fresh base: data intact. *)
  let n' = Vspace.reserve vs Layout.Nvm 4096 in
  Vspace.map_seg vs ~vpage:(Layout.page_of_va n') ~pages:1 ~first_frame:n_frame;
  check_i64 "nvm data survives remap" 9L (Mem.read_word m n')

(* --- properties -------------------------------------------------------- *)

let prop_word_roundtrip =
  QCheck.Test.make ~name:"mem word write/read roundtrip" ~count:200
    QCheck.(pair (int_bound 500) (map Int64.of_int int))
    (fun (word_idx, value) ->
      let m = Mem.create () in
      let base = Mem.map_fresh m Layout.Dram 4096 in
      let va = Int64.add base (Int64.of_int (word_idx * 8)) in
      Mem.write_word m va value;
      Int64.equal (Mem.read_word m va) value)

let prop_region_split =
  QCheck.Test.make ~name:"bit 47 splits the space exactly in half" ~count:500
    QCheck.(map Int64.of_int (int_bound max_int))
    (fun v ->
      let va = Int64.rem (Int64.abs v) Layout.va_limit in
      Layout.is_nvm_va va = (va >= Layout.nvm_va_base))

(* The frame table and the page map against reference models are the
   modelcheck components [physmem] and [vspace]. *)
let qsuite =
  [
    QCheck_alcotest.to_alcotest prop_word_roundtrip;
    Pinned.test_case "frame table matches a frame -> words map"
      (Harnesses.Physmem_h.harness ());
    Pinned.test_case "translate_pa matches a page map"
      (Harnesses.Vspace_h.harness ());
    QCheck_alcotest.to_alcotest prop_region_split;
  ]

let () =
  Alcotest.run "simmem"
    [
      ( "layout",
        [
          Alcotest.test_case "regions" `Quick test_layout_regions;
          Alcotest.test_case "constants" `Quick test_layout_constants;
          Alcotest.test_case "pages" `Quick test_layout_pages;
        ] );
      ( "physmem",
        [
          Alcotest.test_case "regions" `Quick test_phys_regions;
          Alcotest.test_case "read-write" `Quick test_phys_rw;
          Alcotest.test_case "crash" `Quick test_phys_crash;
          Alcotest.test_case "crash recycles DRAM frames" `Quick
            test_phys_crash_recycles_dram_frames;
          Alcotest.test_case "write_pa allocation-free" `Quick
            test_phys_write_pa_allocation_free;
          Alcotest.test_case "boot and TC hit allocation-free" `Quick
            test_mem_boot_allocation_free;
        ] );
      ( "vspace",
        [
          Alcotest.test_case "reserve halves" `Quick test_vspace_reserve_halves;
          Alcotest.test_case "map-translate" `Quick test_vspace_map_translate;
          Alcotest.test_case "packed translate" `Quick test_vspace_translate_pa;
          Alcotest.test_case "fault" `Quick test_vspace_fault;
          Alcotest.test_case "unmap" `Quick test_vspace_unmap;
        ] );
      ( "mem",
        [
          Alcotest.test_case "words" `Quick test_mem_words;
          Alcotest.test_case "unaligned" `Quick test_mem_unaligned;
          Alcotest.test_case "crash" `Quick test_mem_crash_drops_dram_keeps_nvm;
        ] );
      ("properties", qsuite);
    ]
