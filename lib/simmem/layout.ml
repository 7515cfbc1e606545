(* Address-space layout constants shared by the whole simulator.

   The simulated machine has a 48-bit virtual address space split in two
   equal halves by bit 47: the low half backs DRAM pages, the high half
   backs NVM pages (paper, Fig. 2).  Physical memory is likewise split in
   two regions; the region of a physical frame is determined by comparing
   its frame number against [nvm_phys_frame_base]. *)

let va_bits = 48
let nvm_va_bit = 47
let page_shift = 12
let page_size = 1 lsl page_shift
let word_size = 8
let words_per_page = page_size / word_size

(* First virtual address of the NVM half: 2^47. *)
let nvm_va_base = Int64.shift_left 1L nvm_va_bit

(* One past the last valid virtual address: 2^48. *)
let va_limit = Int64.shift_left 1L va_bits

(* Physical frames [0, nvm_phys_frame_base) are DRAM; frames at or above
   it are NVM.  2^34 frames of 4 KiB = 64 TiB per region, far more than
   any simulation will touch. *)
let nvm_phys_frame_base = 1 lsl 34

type region = Dram | Nvm

let pp_region ppf = function
  | Dram -> Fmt.string ppf "DRAM"
  | Nvm -> Fmt.string ppf "NVM"

let equal_region a b =
  match (a, b) with Dram, Dram | Nvm, Nvm -> true | (Dram | Nvm), _ -> false

(* Region of a *virtual* address, per the bit-47 convention.  The argument
   must be a virtual address (bit 63 clear); relative-format pointers are
   not addresses and must be translated first. *)
let region_of_va va =
  if Int64.logand va (Int64.shift_left 1L nvm_va_bit) <> 0L then Nvm else Dram

let is_nvm_va va = equal_region (region_of_va va) Nvm

let page_of_va va = Int64.to_int (Int64.shift_right_logical va page_shift)

let page_offset_of_va va = Int64.to_int (Int64.logand va 0xFFFL)

let va_of_page page = Int64.shift_left (Int64.of_int page) page_shift

let is_word_aligned va = Int64.logand va 7L = 0L

let align_up_words n = (n + word_size - 1) / word_size * word_size

(* Round a byte count up to a whole number of pages. *)
let pages_of_bytes bytes = (bytes + page_size - 1) / page_size
