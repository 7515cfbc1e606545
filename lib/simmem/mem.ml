(* The combined simulated memory: physical frames plus one process
   address space, with word- and byte-granular accessors keyed by virtual
   address.  This is the functional backing store; timing is modeled
   separately in [nvml_arch] from the event stream the runtime emits. *)

type t = { phys : Physmem.t; vspace : Vspace.t }

exception Unaligned of int64

let create () = { phys = Physmem.create (); vspace = Vspace.create () }

let phys t = t.phys
let vspace t = t.vspace

(* Map [bytes] fresh bytes of [region] memory at a fresh virtual base.
   Returns the base VA.  Physical frames come from the matching region. *)
let map_fresh t region bytes =
  let base = Vspace.reserve t.vspace region bytes in
  let pages = Layout.pages_of_bytes bytes in
  let first_frame = Physmem.alloc_frame_run t.phys region pages in
  Vspace.map_seg t.vspace ~vpage:(Layout.page_of_va base) ~pages ~first_frame;
  base

(* Map an existing list of physical frames (e.g. a persistent pool's
   frames after restart) at a fresh virtual base in the NVM half.
   Pool frames were handed out consecutively, so the list compresses
   into (usually one) O(1) segments. *)
let map_existing t region frames =
  let bytes = List.length frames * Layout.page_size in
  let base = Vspace.reserve t.vspace region bytes in
  let vpage0 = Layout.page_of_va base in
  let rec runs i = function
    | [] -> ()
    | f0 :: rest ->
        let rec eat n = function
          | f :: tl when f = f0 + n -> eat (n + 1) tl
          | tl -> (n, tl)
        in
        let n, tl = eat 1 rest in
        Vspace.map_seg t.vspace ~vpage:(vpage0 + i) ~pages:n ~first_frame:f0;
        runs (i + n) tl
  in
  runs 0 frames;
  base

let unmap t ~base ~bytes =
  Vspace.unmap_range t.vspace ~base ~pages:(Layout.pages_of_bytes bytes)

let check_word_aligned va =
  if not (Layout.is_word_aligned va) then raise (Unaligned va)

(* Packed allocation-free translation: the physical address as an
   unboxed int, or -1 when unmapped. *)
let translate_pa t va = Vspace.translate_pa t.vspace va

let translate_pa_exn t va =
  let pa = Vspace.translate_pa t.vspace va in
  if pa < 0 then raise (Vspace.Fault va) else pa

(* Functional access through an already-translated packed physical
   address — lets callers that also feed the timing model translate
   once per simulated access instead of twice. *)
let read_word_pa t pa = Physmem.read_pa t.phys pa
let write_word_pa t pa value = Physmem.write_pa t.phys pa value

let read_word t va =
  check_word_aligned va;
  Physmem.read_pa t.phys (translate_pa_exn t va)

let write_word t va value =
  check_word_aligned va;
  Physmem.write_pa t.phys (translate_pa_exn t va) value

let read_byte t va =
  let word = read_word t (Int64.logand va (Int64.lognot 7L)) in
  let shift = 8 * Int64.to_int (Int64.logand va 7L) in
  Int64.to_int (Int64.logand (Int64.shift_right_logical word shift) 0xFFL)

let write_byte t va byte =
  let aligned = Int64.logand va (Int64.lognot 7L) in
  let shift = 8 * Int64.to_int (Int64.logand va 7L) in
  let mask = Int64.shift_left 0xFFL shift in
  let old = read_word t aligned in
  let cleared = Int64.logand old (Int64.lognot mask) in
  let inserted = Int64.shift_left (Int64.of_int (byte land 0xFF)) shift in
  write_word t aligned (Int64.logor cleared inserted)

let read_f64 t va = Int64.float_of_bits (read_word t va)
let write_f64 t va x = write_word t va (Int64.bits_of_float x)

(* Fixed-width string helpers: store up to [len] bytes starting at [va].
   Used by the key-value harness for 8-byte keys/values.  Aligned 8-byte
   runs move whole words (the simulated word layout is little-endian, so
   byte i of an aligned word sits at bits 8*i); the ragged edges keep
   byte-granular read-modify-write semantics. *)
let write_string t va s =
  let n = String.length s in
  let lead = min n ((8 - Int64.to_int (Int64.logand va 7L)) land 7) in
  for i = 0 to lead - 1 do
    write_byte t (Int64.add va (Int64.of_int i)) (Char.code s.[i])
  done;
  let i = ref lead in
  while n - !i >= 8 do
    write_word t (Int64.add va (Int64.of_int !i)) (String.get_int64_le s !i);
    i := !i + 8
  done;
  for i = !i to n - 1 do
    write_byte t (Int64.add va (Int64.of_int i)) (Char.code s.[i])
  done

let read_string t va len =
  let lead = min len ((8 - Int64.to_int (Int64.logand va 7L)) land 7) in
  let b = Bytes.create len in
  for i = 0 to lead - 1 do
    Bytes.set b i (Char.chr (read_byte t (Int64.add va (Int64.of_int i))))
  done;
  let i = ref lead in
  while len - !i >= 8 do
    Bytes.set_int64_le b !i (read_word t (Int64.add va (Int64.of_int !i)));
    i := !i + 8
  done;
  for i = !i to len - 1 do
    Bytes.set b i (Char.chr (read_byte t (Int64.add va (Int64.of_int i))))
  done;
  Bytes.unsafe_to_string b

let crash t =
  Physmem.crash t.phys;
  Vspace.crash t.vspace
