(** A synthetic stand-in for the iris dataset of the case study: 150
    samples, 4 features, 3 balanced classes whose means and spreads
    approximate the classic measurements, generated deterministically. *)

type t = { features : float array array; labels : int array }

val classes : int
val features_per_sample : int
val total_samples : int

val generate : unit -> t
(** The dataset; every call returns the same samples. *)
