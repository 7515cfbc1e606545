(* User-transparent persistent pointer representation (paper, Fig. 2).

   Every pointer is a 64-bit word.  Bit 63 selects the interpretation of
   the other 63 bits:

     bit 63 = 0   virtual-address format: bits 0..47 are a virtual
                  address; bit 47 tells whether the address is in the
                  DRAM half (0) or the NVM half (1) of the space.
     bit 63 = 1   relative-address format: bits 32..62 hold a 31-bit
                  persistent-pool ID and bits 0..31 a 32-bit intra-pool
                  byte offset.

   Because bit 63 is the sign bit of an [int64], format discrimination is
   a single sign test. *)

module Layout = Nvml_simmem.Layout

type t = int64

let null : t = 0L

let relative_tag = Int64.min_int (* bit 63 *)

(* Format of the pointer value — the paper's determineY. *)
type format = Virtual | Relative

(* Location a memory cell lives in — the paper's determineX result. *)
type location = Layout.region = Dram | Nvm

let is_relative (p : t) = Int64.compare p 0L < 0
let is_virtual (p : t) = not (is_relative p)
let is_null (p : t) = Int64.equal p 0L

let format (p : t) = if is_relative p then Relative else Virtual

let max_pool_id = (1 lsl 31) - 1
let max_pool_size = Int64.shift_left 1L 32 (* 4 GiB, 32-bit offsets *)

let make_relative ~pool ~offset : t =
  if pool < 0 || pool > max_pool_id then
    Fmt.invalid_arg "Ptr.make_relative: pool id %d out of range" pool;
  if offset < 0L || offset >= max_pool_size then
    Fmt.invalid_arg "Ptr.make_relative: offset %Ld out of range" offset;
  Int64.logor relative_tag
    (Int64.logor (Int64.shift_left (Int64.of_int pool) 32) offset)

let pool_of (p : t) =
  assert (is_relative p);
  Int64.to_int (Int64.logand (Int64.shift_right_logical p 32) 0x7FFFFFFFL)

let offset_of (p : t) =
  assert (is_relative p);
  Int64.logand p 0xFFFFFFFFL

(* determineX in Fig. 3: where does the cell this pointer designates
   live?  A relative pointer necessarily designates NVM; a virtual one is
   classified by bit 47. *)
let location (p : t) : location =
  if is_relative p then Nvm else Layout.region_of_va p

(* Pointer arithmetic (p + i, p - i, ++, --, p[i] address computation).
   Works uniformly in both formats: in virtual format it moves the
   address, in relative format it moves the intra-pool offset.  The
   result keeps the operand's format (Fig. 4, additive operators). *)
let add (p : t) (bytes : int64) : t = Int64.add p bytes

let sub (p : t) (bytes : int64) : t = Int64.sub p bytes

(* Whether an [add] stayed inside the 32-bit offset field of a relative
   pointer (otherwise it silently changed the pool id — undefined
   behaviour, as is overflowing an object in C). *)
let same_pool (p : t) (q : t) =
  is_relative p && is_relative q && pool_of p = pool_of q

let pp ppf (p : t) =
  if is_null p then Fmt.string ppf "NULL"
  else if is_relative p then
    Fmt.pf ppf "rel(pool=%d, off=0x%Lx)" (pool_of p) (offset_of p)
  else Fmt.pf ppf "va(0x%Lx, %a)" p Layout.pp_region (Layout.region_of_va p)
