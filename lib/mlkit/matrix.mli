(** A dense row-major matrix in simulated memory — the Armadillo
    stand-in of the KNN case study.  A matrix is a compound object: a
    small header (data pointer + shape) and a separate data array, both
    in the matrix's region.  With a pool region the header's data
    pointer is a persistent pointer, so element accesses exercise the
    translation machinery. *)

module Runtime = Nvml_runtime.Runtime
module Ptr = Nvml_core.Ptr

type t

val header_size : int
val create : Runtime.t -> Runtime.region -> rows:int -> cols:int -> t
val header : t -> Ptr.t
val rows : t -> int
val cols : t -> int

val data : t -> Ptr.t
(** Load the data pointer from the header — where a persistent matrix's
    pointer is materialized for reuse. *)

val get : t -> int -> int -> float
(** Element access through the header (re-fetches the data pointer,
    like generic library code holding only the object). *)

val set : t -> int -> int -> float -> unit

val get_via : t -> data:Ptr.t -> int -> int -> float
(** Element access through a pre-materialized data pointer — what a
    kernel's inner loop does after hoisting the load. *)

val set_via : t -> data:Ptr.t -> int -> int -> float -> unit
val of_arrays : Runtime.t -> Runtime.region -> float array array -> t
val to_arrays : t -> float array array
val fill : t -> float -> unit
