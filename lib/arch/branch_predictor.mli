(** A gshare branch predictor: global history XOR branch PC indexing a
    table of 2-bit saturating counters — the Pentium-M-class predictor
    of Table IV. *)

type t

val create : table_bits:int -> history_bits:int -> t
val of_config : Config.t -> t

val branch : t -> pc:int -> taken:bool -> bool
(** Record a branch outcome; [true] when the predictor had it wrong
    (the CPU model charges the penalty). *)

val mispredictions : t -> int
val miss_rate : t -> float
val reset_stats : t -> unit
