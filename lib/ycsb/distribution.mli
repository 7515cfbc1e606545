(** Key-popularity distributions in the style of the YCSB core
    generators: uniform, (scrambled) zipfian with Gray's rejection-free
    sampler, and "latest" — a zipfian over recency, the distribution the
    paper's harness uses. *)

type t

val theta : float
(** The zipfian constant (YCSB default 0.99). *)

val uniform : int -> t
val zipfian : int -> t
val scrambled_zipfian : int -> t
val latest : int -> t

val hotspot : ?hot_frac:float -> ?op_frac:float -> int -> t
(** YCSB hotspot generator: the first [hot_frac] (default 0.01) of the
    initial population receives [op_frac] (default 0.9) of the draws;
    the rest go uniformly to the cold records.  The hot set is fixed at
    creation and does not grow with the population, giving a serving
    cache sized to hold it a closed-form expected hit rate of
    [op_frac]. *)

val hot_set_size : t -> int
(** Number of records in the hot set; 0 for non-hotspot
    distributions. *)

val scramble : int64 -> int64
(** splitmix64 finalizer, used for key scrambling. *)

val grow : t -> unit
(** Extend the population by one record (after an insert); O(1). *)

val population : t -> int

val sample : t -> Random.State.t -> int
(** Draw a record index in [0, population). *)
