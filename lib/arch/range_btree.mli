(** The VATB kernel table: a B-tree mapping virtual-address ranges to
    persistent-pool IDs (the Range-TLB-style structure the paper
    adopts).  The VAW walks root-to-leaf, one kernel-memory access per
    node, so {!lookup} also reports how many nodes it visited.

    Ranges are keyed by base address and never overlap. *)

type entry = { base : int64; size : int64; pool : int }

type t

val degree : int
val create : unit -> t
val length : t -> int
val height : t -> int

val insert : t -> base:int64 -> size:int64 -> pool:int -> unit
(** Insert or replace the range starting at [base]. *)

val remove : t -> int64 -> bool
(** Remove the range with the given base; [true] if it existed. *)

val lookup : t -> int64 -> (entry * int) option
(** The range containing the address, plus the number of nodes visited
    during the descent. *)

val to_list : t -> entry list
(** All entries in ascending base order. *)

val check_invariants : t -> unit
(** Key ordering, occupancy bounds, uniform leaf depth and range
    disjointness.  @raise Failure on violation. *)
