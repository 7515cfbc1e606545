(** Structure content snapshots: the ordered (key, value) image of a
    map, as visited by its [iter].  Used by the fault-injection checker
    to compare a recovered structure against the pre- and
    post-transaction images recorded on the reference run. *)

type t = (int64 * int64) list

val capture : ((key:int64 -> value:int64 -> unit) -> unit) -> t
(** [capture (fun f -> M.iter m f)] — the entries in iteration order. *)

val size : t -> int
val equal : t -> t -> bool

val diff_summary : t -> t -> string option
(** Human-readable first divergence ([None] when equal). *)
