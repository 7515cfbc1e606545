(* Tests for the simulated memory substrate: layout constants, physical
   frames, the page table, word/byte accessors, and crash semantics. *)

module Layout = Nvml_simmem.Layout
module Physmem = Nvml_simmem.Physmem
module Vspace = Nvml_simmem.Vspace
module Mem = Nvml_simmem.Mem

let check = Alcotest.check
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
  check_i64 "other words zero" 0L (Physmem.read_word pm ~frame:f ~word_index:8)

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
  (match Vspace.translate vs 0x5123L with
  | Some (frame, off) ->
      check_int "frame" 99 frame;
      check_int "offset" 0x123 off
  | None -> Alcotest.fail "expected mapping");
  check_bool "unmapped faults" true (Vspace.translate vs 0x9000L = None)

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
  let vs = Vspace.create () in
  Alcotest.check_raises "fault on unmapped" (Vspace.Fault 0x4000L) (fun () ->
      ignore (Vspace.translate_exn vs 0x4000L))

let test_vspace_unmap () =
  let vs = Vspace.create () in
  Vspace.map_seg vs ~vpage:0x10 ~pages:3 ~first_frame:1;
  check_bool "mapped" true (Vspace.is_mapped vs 0x12000L);
  Vspace.unmap_range vs ~base:0x10000L ~pages:3;
  check_bool "unmapped" false (Vspace.is_mapped vs 0x12000L)

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

let test_mem_bytes () =
  let m = Mem.create () in
  let base = Mem.map_fresh m Layout.Dram 4096 in
  Mem.write_byte m (Int64.add base 3L) 0xAB;
  check_int "byte back" 0xAB (Mem.read_byte m (Int64.add base 3L));
  check_int "neighbour untouched" 0 (Mem.read_byte m (Int64.add base 2L));
  (* byte 3 of the word = bits 24..31 *)
  check_i64 "word view" (Int64.shift_left 0xABL 24) (Mem.read_word m base)

let test_mem_strings () =
  let m = Mem.create () in
  let base = Mem.map_fresh m Layout.Dram 4096 in
  Mem.write_string m (Int64.add base 16L) "hello!!!";
  check Alcotest.string "string back" "hello!!!"
    (Mem.read_string m (Int64.add base 16L) 8)

let test_mem_strings_ragged () =
  (* The whole-word fast path must keep byte semantics at every
     alignment and length, including spans that cross the word-aligned
     head/tail boundary. *)
  let m = Mem.create () in
  let base = Mem.map_fresh m Layout.Dram 8192 in
  let payload = "abcdefghijklmnopqrstuvwxyz0123456789" in
  for off = 0 to 7 do
    for len = 0 to 19 do
      let s = String.sub payload 0 len in
      let va = Int64.add base (Int64.of_int ((off * 256) + off)) in
      Mem.write_string m va s;
      check Alcotest.string
        (Printf.sprintf "roundtrip off=%d len=%d" off len)
        s (Mem.read_string m va len);
      (* The same bytes must be visible through the byte accessors. *)
      String.iteri
        (fun i c ->
          check_int
            (Printf.sprintf "byte view off=%d i=%d" off i)
            (Char.code c)
            (Mem.read_byte m (Int64.add va (Int64.of_int i))))
        s
    done
  done

let test_mem_string_neighbours_untouched () =
  let m = Mem.create () in
  let base = Mem.map_fresh m Layout.Dram 4096 in
  (* Fill a region with a sentinel pattern byte-wise, overwrite the
     middle with the fast path, and check the fringes survived. *)
  for i = 0 to 63 do
    Mem.write_byte m (Int64.add base (Int64.of_int i)) 0xEE
  done;
  let va = Int64.add base 13L in
  Mem.write_string m va "0123456789ABCDEF!";
  for i = 0 to 12 do
    check_int (Printf.sprintf "prefix byte %d" i) 0xEE
      (Mem.read_byte m (Int64.add base (Int64.of_int i)))
  done;
  for i = 30 to 63 do
    check_int (Printf.sprintf "suffix byte %d" i) 0xEE
      (Mem.read_byte m (Int64.add base (Int64.of_int i)))
  done;
  check Alcotest.string "middle" "0123456789ABCDEF!" (Mem.read_string m va 17)

let test_mem_floats () =
  let m = Mem.create () in
  let base = Mem.map_fresh m Layout.Nvm 4096 in
  Mem.write_f64 m base 3.25;
  check (Alcotest.float 0.0) "float back" 3.25 (Mem.read_f64 m base)

let test_mem_crash_drops_dram_keeps_nvm () =
  let m = Mem.create () in
  let d = Mem.map_fresh m Layout.Dram 4096 in
  let n = Mem.map_fresh m Layout.Nvm 4096 in
  Mem.write_word m d 7L;
  Mem.write_word m n 9L;
  let n_frames =
    List.init 1 (fun i -> fst (Vspace.translate_exn (Mem.vspace m) (Int64.add n (Int64.of_int (i * 4096)))))
  in
  Mem.crash m;
  check_bool "dram mapping gone" false (Vspace.is_mapped (Mem.vspace m) d);
  check_bool "nvm mapping gone too" false (Vspace.is_mapped (Mem.vspace m) n);
  (* Remap the surviving NVM frames at a fresh base: data intact. *)
  let n' = Mem.map_existing m Layout.Nvm n_frames in
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

let prop_byte_roundtrip =
  QCheck.Test.make ~name:"mem byte write/read roundtrip" ~count:200
    QCheck.(pair (int_bound 4095) (int_bound 255))
    (fun (off, byte) ->
      let m = Mem.create () in
      let base = Mem.map_fresh m Layout.Dram 4096 in
      let va = Int64.add base (Int64.of_int off) in
      Mem.write_byte m va byte;
      Mem.read_byte m va = byte)

let prop_bytes_independent =
  QCheck.Test.make ~name:"byte writes do not disturb neighbours" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 50) (pair (int_bound 255) (int_bound 255)))
    (fun writes ->
      let m = Mem.create () in
      let base = Mem.map_fresh m Layout.Dram 4096 in
      let shadow = Array.make 256 0 in
      List.iter
        (fun (off, v) ->
          shadow.(off) <- v;
          Mem.write_byte m (Int64.add base (Int64.of_int off)) v)
        writes;
      Array.for_all Fun.id
        (Array.init 256 (fun i ->
             Mem.read_byte m (Int64.add base (Int64.of_int i)) = shadow.(i))))

let prop_region_split =
  QCheck.Test.make ~name:"bit 47 splits the space exactly in half" ~count:500
    QCheck.(map Int64.of_int (int_bound max_int))
    (fun v ->
      let va = Int64.rem (Int64.abs v) Layout.va_limit in
      Layout.is_nvm_va va = (va >= Layout.nvm_va_base))

(* The frame table against a reference map from frame to words.  Frames
   are drawn mostly from the first dozen numbers of each region, and
   now and then from the first 400, so accesses hit reserved,
   untouched, unreserved and crash-recycled frames and the frame arrays
   grow while holding data.  An access to a frame that is not reserved
   must raise [Invalid_argument] and leave the model unchanged. *)
type phys_op =
  | Alloc of Layout.region
  | Alloc_run of Layout.region * int
  | Write_word of int * int * int64
  | Write_pa of int * int * int64
  | Read_pa of int * int
  | Exists of int
  | Crash

let prop_frame_table_matches_model =
  let region = QCheck.Gen.(map (fun b -> if b then Layout.Nvm else Layout.Dram) bool) in
  let frame =
    QCheck.Gen.(
      map2
        (fun r i -> match r with Layout.Dram -> i | Layout.Nvm -> Layout.nvm_phys_frame_base + i)
        region
        (frequency [ (3, int_bound 11); (1, int_bound 399) ]))
  in
  let run = QCheck.Gen.(frequency [ (3, int_range 1 4); (1, int_range 1 200) ]) in
  let word = QCheck.Gen.int_bound (Layout.words_per_page - 1) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun r -> Alloc r) region);
          (2, map2 (fun r n -> Alloc_run (r, n)) region run);
          (4, map3 (fun f w v -> Write_word (f, w, v)) frame word ui64);
          (4, map3 (fun f w v -> Write_pa (f, w, v)) frame word ui64);
          (5, map2 (fun f w -> Read_pa (f, w)) frame word);
          (2, map (fun f -> Exists f) frame);
          (1, return Crash);
        ])
  in
  let print = function
    | Alloc r -> Fmt.str "alloc %a" Layout.pp_region r
    | Alloc_run (r, n) -> Fmt.str "alloc_run %a %d" Layout.pp_region r n
    | Write_word (f, w, v) -> Fmt.str "write_word %d %d %Ld" f w v
    | Write_pa (f, w, v) -> Fmt.str "write_pa %d %d %Ld" f w v
    | Read_pa (f, w) -> Fmt.str "read_pa %d %d" f w
    | Exists f -> Fmt.str "frame_exists %d" f
    | Crash -> "crash"
  in
  QCheck.Test.make ~name:"frame table matches a frame -> words map" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print)
       QCheck.Gen.(list_size (int_range 1 120) op))
    (fun ops ->
      let pm = Physmem.create () in
      let next_dram = ref 1 and next_nvm = ref Layout.nvm_phys_frame_base in
      (* backed frames -> their words *)
      let model : (int, (int, int64) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
      let reserved f =
        (f >= 1 && f < !next_dram)
        || (f >= Layout.nvm_phys_frame_base && f < !next_nvm)
      in
      let words f =
        match Hashtbl.find_opt model f with
        | Some w -> w
        | None ->
            let w = Hashtbl.create 8 in
            Hashtbl.replace model f w;
            w
      in
      let reserve r n =
        let next = match r with Layout.Dram -> next_dram | Layout.Nvm -> next_nvm in
        let f = !next in
        next := f + n;
        f
      in
      (* [access f k]: run [k] on the simulator and [expect] on the model
         when [f] is reserved; expect [Invalid_argument] otherwise. *)
      let access f k expect =
        if reserved f then begin
          let got = k () in
          got = expect ()
        end
        else match k () with _ -> false | exception Invalid_argument _ -> true
      in
      let pa f w = (f lsl Layout.page_shift) lor (w lsl 3) in
      List.for_all
        (function
          | Alloc r -> Physmem.alloc_frame pm r = reserve r 1
          | Alloc_run (r, n) -> Physmem.alloc_frame_run pm r n = reserve r n
          | Write_word (f, w, v) ->
              access f
                (fun () -> Physmem.write_word pm ~frame:f ~word_index:w v)
                (fun () -> Hashtbl.replace (words f) w v)
          | Write_pa (f, w, v) ->
              access f
                (fun () -> Physmem.write_pa pm (pa f w) v)
                (fun () -> Hashtbl.replace (words f) w v)
          | Read_pa (f, w) ->
              access f
                (fun () -> Physmem.read_pa pm (pa f w))
                (fun () ->
                  Option.value ~default:0L (Hashtbl.find_opt (words f) w))
          | Exists f -> Physmem.frame_exists pm f = Hashtbl.mem model f
          | Crash ->
              Physmem.crash pm;
              next_dram := 1;
              Hashtbl.filter_map_inplace
                (fun f w -> if f >= Layout.nvm_phys_frame_base then Some w else None)
                model;
              true)
        ops)

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_word_roundtrip; prop_byte_roundtrip; prop_bytes_independent;
      prop_region_split; prop_frame_table_matches_model ]

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
          Alcotest.test_case "bytes" `Quick test_mem_bytes;
          Alcotest.test_case "strings" `Quick test_mem_strings;
          Alcotest.test_case "ragged strings" `Quick test_mem_strings_ragged;
          Alcotest.test_case "string neighbours" `Quick
            test_mem_string_neighbours_untouched;
          Alcotest.test_case "floats" `Quick test_mem_floats;
          Alcotest.test_case "crash" `Quick test_mem_crash_drops_dram_keeps_nvm;
        ] );
      ("properties", qsuite);
    ]
