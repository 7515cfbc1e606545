(** HDR-style log-bucketed latency recorder for the simulated-cycle
    domain.

    Values are bucketed by a power-of-two major bucket plus
    {!precision_bits} sub-bucket bits: a value [v >= 2^precision_bits]
    with [k = floor(log2 v)] lands in a sub-bucket of width
    [2^(k - precision_bits)], so the reported percentile (the
    sub-bucket's upper bound) overestimates the exact rank value by at
    most a factor of [1 + 2^-precision_bits] — the documented relative
    error bound {!rel_error_bound}.  Values below [2^precision_bits]
    are recorded exactly.  [min], [max], [count] and [sum] are always
    exact.

    The slot array is preallocated at {!create}, so {!record} performs
    no allocation — safe on simulator hot paths.  {!merge_into} adds
    cell counts and is commutative and associative, so merging per-task
    recorders in any order yields the same state as recording the same
    multiset sequentially: [--jobs N] output is bit-identical to
    [--jobs 1]. *)

type t

val precision_bits : int
(** Sub-bucket precision (5): 32 sub-buckets per power of two. *)

val rel_error_bound : float
(** [2^-precision_bits] = 1/32 = 3.125%: percentiles never
    underestimate and overestimate by strictly less than this fraction
    of the exact value. *)

val create : unit -> t

val record : t -> int -> unit
(** Record one observation (negative values clamp to 0).
    Allocation-free. *)

val count : t -> int
val sum : t -> int

val min_value : t -> int
(** Exact smallest recorded value; 0 when empty. *)

val max_value : t -> int
(** Exact largest recorded value; 0 when empty. *)

val mean : t -> float

val percentile : t -> float -> int
(** [percentile t q] for [q] in [0, 1]: an upper bound on the value at
    rank [ceil (q * count)], within {!rel_error_bound} of the exact
    rank value and clamped to [max_value t].  0 when empty. *)

val merge_into : dst:t -> t -> unit
(** Add [src]'s cells into [dst].  Commutative, associative. *)

type summary = {
  count : int;
  sum : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  p999 : int;
  max : int;
}

val summary : t -> summary

val summary_json : t -> Json.t
(** [{"count": ..., "sum": ..., "mean": ..., "p50": ..., "p90": ...,
    "p99": ..., "p999": ..., "max": ...}] *)

(**/**)
