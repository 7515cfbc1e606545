(** Address-space layout constants shared by the whole simulator.

    The simulated machine has a 48-bit virtual address space split into
    two equal halves by bit 47 — the low half backs DRAM pages, the high
    half backs NVM pages (paper, Fig. 2) — and a physical frame space
    likewise split by {!nvm_phys_frame_base}. *)

val page_shift : int
val page_size : int
val words_per_page : int

val nvm_va_base : int64
(** First virtual address of the NVM half: [2^47]. *)

val va_limit : int64
(** One past the last valid virtual address: [2^48]. *)

val nvm_phys_frame_base : int
(** Physical frames at or above this number are NVM. *)

type region = Dram | Nvm

val pp_region : region Fmt.t
val equal_region : region -> region -> bool

val region_of_va : int64 -> region
(** Classify a {e virtual address} by bit 47.  The argument must be in
    virtual-address format (bit 63 clear). *)

val is_nvm_va : int64 -> bool
val page_of_va : int64 -> int
val page_offset_of_va : int64 -> int
val va_of_page : int -> int64
val is_word_aligned : int64 -> bool
val align_up_words : int -> int
val pages_of_bytes : int -> int
