(** User-transparent persistent pointer representation (paper, Fig. 2).

    Every pointer is a 64-bit word.  Bit 63 selects the interpretation
    of the remaining bits:

    - bit 63 = 0: {e virtual-address format} — bits 0..47 are a virtual
      address, and bit 47 tells whether it lies in the DRAM half (0) or
      the NVM half (1) of the address space;
    - bit 63 = 1: {e relative-address format} — bits 32..62 hold a
      31-bit persistent-pool ID and bits 0..31 a 32-bit intra-pool byte
      offset.

    Because bit 63 is the sign bit of an [int64], discriminating the two
    formats is a single sign test. *)

type t = int64
(** A pointer value, in either format. *)

val null : t
(** The null pointer (all zero — null in both interpretations). *)

(** Format of a pointer value — what the paper's [determineY] returns. *)
type format = Virtual | Relative

type location = Nvml_simmem.Layout.region = Dram | Nvm
(** Where the cell a pointer designates lives — what [determineX]
    returns. *)

val is_relative : t -> bool
(** [is_relative p] is the bit-63 test: one instruction. *)

val is_virtual : t -> bool
val is_null : t -> bool
val format : t -> format

val max_pool_id : int
(** Largest representable pool ID: [2^31 - 1]. *)

val max_pool_size : int64
(** Pool size limit imposed by the 32-bit offset field: 4 GiB. *)

val make_relative : pool:int -> offset:int64 -> t
(** Pack a pool ID and byte offset into relative format.
    @raise Invalid_argument if either field is out of range. *)

val pool_of : t -> int
(** Pool ID of a relative pointer.  Undefined on virtual pointers. *)

val offset_of : t -> int64
(** Intra-pool offset of a relative pointer. *)

val location : t -> location
(** [determineX]: a relative pointer designates NVM; a virtual address
    is classified by bit 47. *)

val add : t -> int64 -> t
(** Byte-granular pointer arithmetic; format-preserving (it moves the
    address in virtual format and the offset in relative format). *)

val sub : t -> int64 -> t

val same_pool : t -> t -> bool
(** Both relative and into the same pool — the case where comparisons
    and differences need no translation. *)
