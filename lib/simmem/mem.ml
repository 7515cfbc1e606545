(* The combined simulated memory: physical frames plus one process
   address space, with word accessors keyed by virtual or packed
   physical address.  This is the functional backing store; timing is
   modeled separately in [nvml_arch] from the event stream the runtime
   emits. *)

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

let crash t =
  Physmem.crash t.phys;
  Vspace.crash t.vspace
