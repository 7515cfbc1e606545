(** The KNN case study (Section VII-E): exact k-nearest-neighbours over
    four matrices — input samples, an internal distance matrix, and two
    output matrices (neighbour indices and distances) — each placeable
    in DRAM or NVM. *)

module Runtime = Nvml_runtime.Runtime

type placement = {
  input : Runtime.region;
  internal : Runtime.region;
  neighbors : Runtime.region;
  distances : Runtime.region;
}

val all_placements : pool:int -> placement list
(** All 16 DRAM/NVM combinations — the reason an explicit-pointer port
    would need 16 code versions. *)

type t = {
  input : Matrix.t;
  internal : Matrix.t;
  neighbors : Matrix.t;
  distances : Matrix.t;
  k : int;
}

val create : Runtime.t -> placement -> n:int -> dims:int -> k:int -> t
(** @raise Invalid_argument unless [k] is in [1..n-1]: the neighbours
    exclude the sample itself. *)

val load_input : t -> float array array -> unit

val run : Runtime.t -> t -> unit
(** All-pairs distances, then the k nearest per row (excluding self)
    into the output matrices. *)

val accuracy : t -> int array -> float
(** Leave-one-out majority-vote accuracy against true labels. *)

val case_study : mode:Runtime.mode -> k:int -> float * Nvml_arch.Cpu.snapshot
(** The case study: the iris dataset ({!Iris}) on a fresh machine in
    the paper's placement — everything persistent except the input, all
    DRAM in the [Volatile] version — classified once with [k]
    neighbours.  Returns the leave-one-out accuracy and the
    classification's snapshot delta.
    @raise Invalid_argument unless [k] is in [1..Iris.total_samples-1]. *)
