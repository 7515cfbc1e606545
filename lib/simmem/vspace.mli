(** A process virtual address space: segments mapping runs of virtual
    pages to runs of physical frames, plus bump reservations for fresh
    mapping bases in each half.  Volatile kernel state: a crash clears
    it. *)

exception Fault of int64
(** Access to an unmapped virtual address. *)

type t

val create : unit -> t

val reserve : t -> Layout.region -> int -> int64
(** Reserve a fresh page-aligned virtual range in the given half;
    returns its base. *)

val skew_nvm_brk : t -> int -> unit
(** Skip pages in the NVM half so re-opened pools land at different
    bases — exercising pointer relocatability. *)

val map_seg : t -> vpage:int -> pages:int -> first_frame:int -> unit
(** Map [pages] consecutive pages onto consecutive frames starting at
    [first_frame], as one O(1) segment. *)

val unmap_range : t -> base:int64 -> pages:int -> unit

val translate : t -> int64 -> (int * int) option
(** [translate t va] is [(frame, page offset)] or [None]. *)

val translate_pa : t -> int64 -> int
(** Packed allocation-free translation: the physical address
    [frame * page_size + offset] as an unboxed int, or -1 on fault.
    Served from a direct-mapped software translation cache in front of
    the segment list. *)

val translate_exn : t -> int64 -> int * int
(** @raise Fault when unmapped. *)

val is_mapped : t -> int64 -> bool

val tc_stats : t -> Nvml_telemetry.Stats.Hit_miss.t
(** Hit/miss record of the software translation cache in front of the
    segment list. *)

val crash : t -> unit
(** All mappings vanish and the reservation pointers reset. *)
