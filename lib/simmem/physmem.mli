(** Simulated physical memory: DRAM and NVM frame spaces allocated on
    demand, with word-granular access.  A simulated {!crash} erases all
    DRAM frames and leaves NVM frames intact — the property the whole
    persistence stack builds on.  Nothing runs past a simulated power
    failure: the crash-point engine installs the image a crash leaves
    in a fresh machine's frames instead of stopping a running one, so
    the media has no frozen state. *)

type frame = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

val create : unit -> t
val region_of_frame : int -> Layout.region
val alloc_frame : t -> Layout.region -> int

val alloc_frame_run : t -> Layout.region -> int -> int
(** Reserve [n] consecutive frame numbers and return the first — the
    numbering [n] successive {!alloc_frame} calls would produce. *)

val frame_exists : t -> int -> bool
(** Whether the frame's backing storage has been materialized (frames
    are backed lazily on first touch). *)

val storage : t -> int -> frame

val read_pa : t -> int -> int64
(** Word at the packed physical address [frame * page_size + offset]
    (as produced by {!Vspace.translate_pa}); allocation-free. *)

val write_pa : t -> int -> int64 -> unit
(** The one write path: the fi hook's announcement, the persistency
    note, the store, then the media note. *)

val read_word : t -> frame:int -> word_index:int -> int64
val write_word : t -> frame:int -> word_index:int -> int64 -> unit
(** {!read_pa} / {!write_pa} at [frame]'s word [word_index].
    @raise Invalid_argument unless [0 <= word_index <
    Layout.words_per_page]. *)

val crash : t -> unit
(** Simulated power failure at the media level.

    Erased: the contents of every DRAM frame (their backing storage is
    released and the DRAM frame counter recycled, so old DRAM frame
    numbers are dead).  Survives: every NVM frame, bit for bit, along
    with the NVM frame counter and any armed fault-injection hook.
    Higher layers
    add their own crash semantics on top: see {!Vspace.crash} (all
    mappings), {!Mem.crash}, and [Pmop.crash] (pool registry and pool
    frames survive; volatile tables vanish). *)

val dram_frames_allocated : t -> int
val nvm_frames_allocated : t -> int
val reads : t -> int
val writes : t -> int

(** {2 Fault injection}

    One hook per machine sees every persistence-relevant event
    {e before} it takes effect ({!Fi.event}); raising from the hook
    therefore suppresses the announced store.  The hook survives
    {!crash} so an injector can observe recovery too. *)

val set_fi_hook : t -> (Fi.event -> unit) option -> unit
(** Arm or disarm the fault-injection hook.  The unarmed write path
    pays only a null test; the armed path additionally reads the old
    value of every NVM word stored. *)

val fire : t -> Fi.event -> unit
(** Announce an event from an upper layer ([Txn], [Pmop], [Runtime])
    to the hook, if armed.  No-op otherwise. *)

(** {2 Media model}

    One read hook and one write note per machine let a media-error
    model ([Nvml_media.Media]) sit under every NVM access: the read
    hook sees each word leaving a frame and may transform it (bit rot)
    or raise (a poisoned line); the write note fires after a store
    lands, so the model can heal a re-written location.  Both hooks
    survive {!crash} — device defects outlive power cycles. *)

val set_media_read : t -> (frame:int -> word_index:int -> int64 -> int64) option -> unit
val set_media_write_note : t -> (frame:int -> word_index:int -> unit) option -> unit
val media_armed : t -> bool

val set_persist_note :
  t -> (frame:int -> word_index:int -> old_value:int64 -> unit) option -> unit
(** Arm or disarm the persistency-engine note: an armed note sees every
    NVM word store {e after} the fi hook has let it through but
    {e before} the word lands, with the still-durable [old_value] of
    the location.  A buffered persistency model ([Persist]) uses it to
    record the word as dirty-but-volatile; the unarmed write path pays
    only a null test.  Survives {!crash} management by the caller: the
    hook itself is left untouched by {!crash}. *)

val persist_armed : t -> bool

val peek : t -> frame:int -> word_index:int -> int64
(** Raw word read: no counters, no hook, no media model. *)

val poke : t -> frame:int -> word_index:int -> int64 -> unit
(** Raw word write: no counters, no hook, and does {e not} fire the
    media write note (so it never heals a media fault).  This is the
    injectors' backdoor for planting torn words ({!Fi.torn_word}) in a
    crash image and for corrupting checksummed metadata by hand in
    tests. *)
