(** The LL benchmark: a doubly linked list whose nodes carry two
    pointers and a 16-byte value (Table III).  Its harness builds
    10,000 nodes and iterates, accumulating the values — a pure
    pointer-chasing workload. *)

module Runtime = Nvml_runtime.Runtime
module Ptr = Nvml_core.Ptr

type t

val name : string
val description : string

val node_size : int
(** Bytes per node (two pointers + 16-byte value). *)

val create : Runtime.t -> Runtime.region -> t
val header : t -> Ptr.t
val attach : Runtime.t -> Ptr.t -> t
val length : t -> int

val append : t -> v0:int64 -> v1:int64 -> unit
val prepend : t -> v0:int64 -> v1:int64 -> unit

val iterate_sum : t -> int64
(** The benchmark kernel: walk the list accumulating both value words
    of every node. *)

val iter : t -> (v0:int64 -> v1:int64 -> unit) -> unit

val find : t -> int64 -> Ptr.t option
(** First node whose first value word matches. *)

val remove_value : t -> int64 -> bool

val check_invariants : t -> unit
(** Link symmetry both ways plus the recorded length. *)
