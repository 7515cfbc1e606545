(** The live-register window of the HW scheme's "keep relative
    opportunistically" optimization (Section IV): when a loaded relative
    pointer is materialized into a virtual address, its relative form
    stays live in a register for a while, so storing the pointer back
    into NVM shortly after needs no VALB translation.

    The contract is exact: the window holds the {!capacity} most
    recently inserted {e distinct} virtual addresses in FIFO order.
    Inserting an address already present changes nothing (in
    particular, a hit does not refresh its entry); inserting a new one
    into a full window evicts the oldest.  Neither {!remember} nor
    {!find} allocates. *)

type t

val capacity : int
(** 32 entries. *)

val create : unit -> t
(** An empty window. *)

val clear : t -> unit
(** Forget every entry (a crashed or freshly forked core). *)

val remember : t -> va:int64 -> rel:int64 -> unit
(** Record that the virtual address [va] (a virtual-format pointer,
    bit 63 clear) was materialized from the relative pointer [rel].
    No-op if [va] is already in the window. *)

val find : t -> int64 -> int
(** The slot holding the virtual address, or [-1] if it is not in the
    window. *)

val rel : t -> int -> int64
(** The relative form remembered in a slot returned by {!find}. *)
