(** A fixed-size domain worker pool for running independent simulation
    cells in parallel.

    Cells are share-nothing (each builds its own [Runtime.t] machine and
    derives all randomness from its workload spec's seed), so results
    are bit-identical to a sequential run regardless of worker count or
    scheduling.  [run] returns results in submission order.

    When telemetry recording is enabled, each task runs in a fresh
    telemetry sink and [run] merges the sinks into the caller's current
    sink in submission order at the join — so telemetry, too, is
    bit-identical to a sequential run. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val create : ?jobs:int -> unit -> t
(** Spawn a pool of [jobs] worker domains (default {!default_jobs}).
    With [jobs = 1] no domains are spawned; {!run} executes inline in
    the calling domain, preserving exact sequential behaviour. *)

val jobs : t -> int

val run : t -> (unit -> 'a) list -> 'a list
(** Execute every task, returning results in submission order.  If
    tasks raised, the exception of the earliest-submitted failed task
    is re-raised after all tasks finish — deterministic regardless of
    scheduling.  Not reentrant: call from the owning domain only.
    @raise Invalid_argument after {!shutdown}. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] is [run t] over [fun () -> f x]. *)

val shutdown : t -> unit
(** Stop and join the workers.  Idempotent. *)
