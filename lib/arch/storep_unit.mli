(** The storeP functional unit (Fig. 6): a buffer of outstanding
    store-pointer instructions whose Rs/Rd translations proceed
    concurrently; the pipeline stalls only when every FSM entry is
    busy.

    The unit keeps the completion cycles of its busy entries, those
    still above the last issue's cycle, in a min-heap: occupancy is the
    heap size and a full unit stalls until the earliest completion.
    Only that multiset is observable, so this is the same unit as one
    that scans every entry, provided issues come at non-decreasing
    cycles. *)

type t

val create : entries:int -> t
(** @raise Invalid_argument unless [entries] is positive. *)

val issue : t -> now:int -> latency:int -> int
(** Issue a storeP at cycle [now] whose translations take [latency]
    cycles inside the unit; returns the structural stall (0 when a free
    entry exists).
    @raise Invalid_argument if [now] is below the previous issue's
    [now] since the last {!flush}. *)

val issued : t -> int
val stall_cycles : t -> int
val peak_occupancy : t -> int

val flush : t -> unit
(** Free every entry; the next issue may come at any cycle.  The
    counters keep their values. *)
