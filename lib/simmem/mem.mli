(** The combined simulated memory: physical frames plus one process
    address space, with word accessors keyed by virtual or packed
    physical address.  This is the functional backing store; timing is
    modeled separately in [nvml_arch]. *)

type t

exception Unaligned of int64

val create : unit -> t
val phys : t -> Physmem.t
val vspace : t -> Vspace.t

val map_fresh : t -> Layout.region -> int -> int64
(** Map fresh memory of a region at a fresh base; returns the base. *)

val unmap : t -> base:int64 -> bytes:int -> unit

val translate_pa : t -> int64 -> int
(** Packed allocation-free translation: the physical address
    [frame * page_size + offset] as an unboxed int, or -1 when
    unmapped. *)

val translate_pa_exn : t -> int64 -> int
(** @raise Vspace.Fault when unmapped. *)

val read_word_pa : t -> int -> int64
(** Word at a packed physical address from {!translate_pa} — for
    callers that translate once and feed both the timing model and the
    functional store. *)

val write_word_pa : t -> int -> int64 -> unit

val read_word : t -> int64 -> int64
(** @raise Unaligned on a non-8-byte-aligned address. *)

val write_word : t -> int64 -> int64 -> unit

val crash : t -> unit
(** Simulated power failure: erases every DRAM frame's contents
    ({!Physmem.crash}) and every virtual mapping ({!Vspace.crash});
    NVM frames survive bit for bit. *)
