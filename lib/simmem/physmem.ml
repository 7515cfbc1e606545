(* Simulated physical memory: two frame spaces (DRAM and NVM), allocated
   on demand.  Frame contents are 64-bit words in unboxed bigarrays so the
   simulator can hold millions of words cheaply.

   A simulated crash erases the contents of every DRAM frame but leaves
   NVM frames intact — this is the property the rest of the stack builds
   persistence on. *)

type frame =
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Frame storage is indexed directly by frame number: [dram.(f)] backs
   DRAM frame [f] (numbered from 1, recycled by [crash]) and
   [nvm.(f - nvm_phys_frame_base)] NVM frame [f] (never recycled).  A
   slot holding [no_storage] is reserved but not yet touched.  Each
   array grows to the highest frame actually touched, not to the highest
   reserved: boot reserves a 32k-frame DRAM arena that a short run
   barely uses. *)
type t = {
  mutable dram : frame array;
  mutable nvm : frame array;
  mutable next_dram_frame : int;
  mutable next_nvm_frame : int;
  mutable dram_frames_allocated : int;
  mutable nvm_frames_allocated : int;
  mutable reads : int;
  mutable writes : int;
  (* Fault injection: an armed hook sees every persistence-relevant
     event before it takes effect; a frozen machine drops all stores
     (power is off, nothing lands on the media any more). *)
  mutable fi_hook : (Fi.event -> unit) option;
  mutable frozen : bool;
  (* Media model: an armed read hook sees every word leaving an NVM
     frame and may transform it (bit rot) or raise (poisoned line); the
     write note lets the model heal a location that is re-written. *)
  mutable media_read : (frame:int -> word_index:int -> int64 -> int64) option;
  mutable media_write : (frame:int -> word_index:int -> unit) option;
  (* Persistency model: an armed note sees every NVM word store after
     the fi hook has let it through but before it lands, so a buffered
     persistency engine can record the word as dirty-but-volatile. *)
  mutable persist_note :
    (frame:int -> word_index:int -> old_value:int64 -> unit) option;
}

let no_storage : frame =
  Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 0

let create () =
  {
    dram = [||];
    nvm = [||];
    next_dram_frame = 1 (* frame 0 reserved so phys addr 0 is never valid *);
    next_nvm_frame = Layout.nvm_phys_frame_base;
    dram_frames_allocated = 0;
    nvm_frames_allocated = 0;
    reads = 0;
    writes = 0;
    fi_hook = None;
    frozen = false;
    media_read = None;
    media_write = None;
    persist_note = None;
  }

let region_of_frame frame =
  if frame >= Layout.nvm_phys_frame_base then Layout.Nvm else Layout.Dram

let fresh_frame_storage () =
  let a = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout
      Layout.words_per_page in
  Bigarray.Array1.fill a 0L;
  a

(* Frame numbers are handed out eagerly; the backing storage is
   created on first touch, so memory stays proportional to the pages a
   simulation actually uses rather than to what it maps. *)
let alloc_frame t region =
  match region with
  | Layout.Dram ->
      let f = t.next_dram_frame in
      t.next_dram_frame <- f + 1;
      t.dram_frames_allocated <- t.dram_frames_allocated + 1;
      f
  | Layout.Nvm ->
      let f = t.next_nvm_frame in
      t.next_nvm_frame <- f + 1;
      t.nvm_frames_allocated <- t.nvm_frames_allocated + 1;
      f

(* Reserve [n] consecutive frame numbers; returns the first.  Same
   numbering as [n] successive [alloc_frame] calls, without building
   the list — contiguous mappings pair this with [Vspace.map_seg]. *)
let alloc_frame_run t region n =
  match region with
  | Layout.Dram ->
      let f = t.next_dram_frame in
      t.next_dram_frame <- f + n;
      t.dram_frames_allocated <- t.dram_frames_allocated + n;
      f
  | Layout.Nvm ->
      let f = t.next_nvm_frame in
      t.next_nvm_frame <- f + n;
      t.nvm_frames_allocated <- t.nvm_frames_allocated + n;
      f

let alloc_frames t region n = List.init n (fun _ -> alloc_frame t region)

let frame_reserved t frame =
  (frame >= 1 && frame < t.next_dram_frame)
  || (frame >= Layout.nvm_phys_frame_base && frame < t.next_nvm_frame)

(* The slot of [frame] in its region's array, or [no_storage] when the
   frame was never touched (or lies beyond the array). *)
let[@inline] slot t frame =
  if frame >= Layout.nvm_phys_frame_base then
    let i = frame - Layout.nvm_phys_frame_base in
    if i < Array.length t.nvm then Array.unsafe_get t.nvm i else no_storage
  else if frame >= 0 && frame < Array.length t.dram then
    Array.unsafe_get t.dram frame
  else no_storage

let frame_exists t frame = slot t frame != no_storage

(* [a] with [s] stored at [i], growing it when [i] lies beyond its end.
   Growth is by an eighth (plus 64 slots), not by doubling: the first
   touch past a reserved-but-idle arena jumps the array to that frame,
   and doubling from there would size it by twice the arena. *)
let set_grow a i s =
  let a =
    if i < Array.length a then a
    else begin
      let n = Array.length a in
      let b = Array.make (max (i + 1) (n + 64 + (n / 8))) no_storage in
      Array.blit a 0 b 0 n;
      b
    end
  in
  Array.unsafe_set a i s;
  a

(* First touch of a reserved frame: create its backing storage. *)
let materialize t frame =
  if not (frame_reserved t frame) then
    Fmt.invalid_arg "Physmem: access to unallocated frame %d" frame;
  let s = fresh_frame_storage () in
  (match region_of_frame frame with
  | Layout.Nvm -> t.nvm <- set_grow t.nvm (frame - Layout.nvm_phys_frame_base) s
  | Layout.Dram -> t.dram <- set_grow t.dram frame s);
  s

let storage t frame =
  let s = slot t frame in
  if s != no_storage then s else materialize t frame

(* Fire a [Pm_store] for a word about to land in an NVM frame.  Only
   called with a hook armed; reading the old value costs a frame lookup,
   which is why the unarmed paths below skip this entirely. *)
let announce_nvm_store t f frame word_index value =
  if frame >= Layout.nvm_phys_frame_base then
    f
      (Fi.Pm_store
         {
           frame;
           word_index;
           old_value = Bigarray.Array1.get (storage t frame) word_index;
           new_value = value;
         })

(* Tell the persistency engine about an NVM word store the fi hook let
   through.  Fires between the fi announcement and the bigarray set, so
   a crash raised from the hook never records a phantom dirty word. *)
let note_persist_store t frame word_index =
  match t.persist_note with
  | None -> ()
  | Some f ->
      if frame >= Layout.nvm_phys_frame_base then
        f ~frame ~word_index
          ~old_value:(Bigarray.Array1.get (storage t frame) word_index)

(* Packed-address accessors: [pa] is [frame * page_size + offset] as an
   unboxed int (as produced by [Vspace.translate_pa]).  The word index
   is always in range because offsets are page-bounded, so the bigarray
   bound check is elided. *)
let read_pa t pa =
  t.reads <- t.reads + 1;
  let v =
    Bigarray.Array1.unsafe_get
      (storage t (pa lsr Layout.page_shift))
      ((pa land (Layout.page_size - 1)) lsr 3)
  in
  match t.media_read with
  | None -> v
  | Some f ->
      f ~frame:(pa lsr Layout.page_shift)
        ~word_index:((pa land (Layout.page_size - 1)) lsr 3)
        v

let note_media_write t pa =
  match t.media_write with
  | None -> ()
  | Some f ->
      f ~frame:(pa lsr Layout.page_shift)
        ~word_index:((pa land (Layout.page_size - 1)) lsr 3)

let write_pa t pa value =
  match t.fi_hook with
  | None ->
      if not t.frozen then begin
        t.writes <- t.writes + 1;
        (if t.persist_note <> None then
           note_persist_store t (pa lsr Layout.page_shift)
             ((pa land (Layout.page_size - 1)) lsr 3));
        Bigarray.Array1.unsafe_set
          (storage t (pa lsr Layout.page_shift))
          ((pa land (Layout.page_size - 1)) lsr 3)
          value;
        note_media_write t pa
      end
  | Some f ->
      if not t.frozen then begin
        t.writes <- t.writes + 1;
        let frame = pa lsr Layout.page_shift in
        let word_index = (pa land (Layout.page_size - 1)) lsr 3 in
        announce_nvm_store t f frame word_index value;
        note_persist_store t frame word_index;
        Bigarray.Array1.unsafe_set (storage t frame) word_index value;
        note_media_write t pa
      end

(* (frame, word index) accessors for harnesses and tests: the packed
   address of the word, through the one read and one write path.  The
   index is checked first, so a bad one raises instead of aliasing into
   the next frame. *)
let packed ~frame ~word_index =
  if word_index < 0 || word_index >= Layout.words_per_page then
    Fmt.invalid_arg "Physmem: word index %d outside a frame" word_index;
  (frame lsl Layout.page_shift) lor (word_index lsl 3)

let read_word t ~frame ~word_index = read_pa t (packed ~frame ~word_index)

let write_word t ~frame ~word_index value =
  write_pa t (packed ~frame ~word_index) value

(* Hook management and the raw backdoors the injector itself uses. *)

let set_fi_hook t hook = t.fi_hook <- hook

let fire t event =
  match t.fi_hook with
  | Some f when not t.frozen -> f event
  | _ -> ()

let set_frozen t frozen = t.frozen <- frozen
let frozen t = t.frozen

let set_media_read t hook = t.media_read <- hook
let set_media_write_note t hook = t.media_write <- hook
let media_armed t = t.media_read <> None || t.media_write <> None
let set_persist_note t hook = t.persist_note <- hook
let persist_armed t = t.persist_note <> None

let peek t ~frame ~word_index =
  Bigarray.Array1.get (storage t frame) word_index

let poke t ~frame ~word_index value =
  Bigarray.Array1.set (storage t frame) word_index value

(* Crash semantics: DRAM frames lose their contents and are released;
   NVM frames survive untouched.  The DRAM frame counter is recycled
   too — the old frame numbers are dead (every DRAM mapping is gone),
   and without the reset repeated crash/restart cycles leak DRAM frame
   IDs (and physical address space) monotonically. *)
let crash t =
  t.dram <- [||];
  t.next_dram_frame <- 1;
  t.dram_frames_allocated <- 0;
  (* Power is back: the media accepts stores again.  The fi hook stays
     armed — an injector that wants to observe the recovery run (or a
     shell tracking stores across power cycles) keeps its view.  The
     media hooks survive too: NVM defects are a property of the device,
     not of the power cycle, so a crash mid-scrub replays bit-identical
     faults from the same (seed, point). *)
  t.frozen <- false

let dram_frames_allocated t = t.dram_frames_allocated
let nvm_frames_allocated t = t.nvm_frames_allocated
let reads t = t.reads
let writes t = t.writes
