(** The storeP functional unit (Fig. 6): a buffer of outstanding
    store-pointer instructions whose Rs/Rd translations proceed
    concurrently; the pipeline stalls only when every FSM entry is
    busy. *)

type t

val create : entries:int -> t

val issue : t -> now:int -> latency:int -> int
(** Issue a storeP at cycle [now] whose translations take [latency]
    cycles inside the unit; returns the structural stall (0 when a free
    entry exists). *)

val issued : t -> int
val stall_cycles : t -> int
val peak_occupancy : t -> int

val flush : t -> unit
