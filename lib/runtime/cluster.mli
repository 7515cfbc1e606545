(** A multi-core runtime cluster: the primary runtime plus N-1
    {!Runtime.fork}s, one per additional core, interleaved per µ-event
    by the seeded deterministic scheduler ([Nvml_arch.Multicore]).

    Pool setup, structure creation and recovery run on the primary
    outside {!run}; only the interleaved phase goes through the
    scheduler.  Forks are volatile: after a crash of the primary,
    build a fresh cluster from the restarted primary. *)

type t

val create : ?seed:int -> cores:int -> Runtime.t -> t
(** [create ~cores primary] — core 0 is [primary], cores 1.. are forks.
    [seed] (default 1) drives the scheduler.  [cores >= 1]. *)

val primary : t -> Runtime.t
val rt : t -> int -> Runtime.t
val rts : t -> Runtime.t array
val machine : t -> Nvml_arch.Multicore.t

val run : t -> (int -> unit) array -> unit
(** [run t fns] runs [fns.(i) i] on core [i]'s runtime, interleaved per
    µ-event.  With one core this is a plain call (byte-identical to the
    single-core machine). *)

val stats : t -> Nvml_arch.Multicore.stats
