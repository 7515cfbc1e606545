(** The multi-core machine: N in-order cores interleaved over shared
    L2/L3/POLB/VALB/VATB state.

    Each core's instruction stream runs as an effect-based fiber that
    yields once per narrated µ-event; a seeded xorshift scheduler picks
    the next runnable core at every yield, so the interleaving is a
    pure function of (seed, per-core programs) — `--jobs N` equals
    `--jobs 1` byte for byte.  Stores broadcast to the other cores'
    private L1s (coherence shoot-downs); shared L2/L3/POLB/VALB need no
    action.  Everything runs on one OCaml domain: this is simulated
    concurrency with a reproducible schedule, not parallelism. *)

type t

type _ Effect.t += Yield : unit Effect.t
(** Performed by a core's [on_step] hook during {!run}; user code never
    performs it directly. *)

exception Aborted
(** Raised into still-paused fibers when another fiber's exception
    aborts the schedule, so their stacks unwind cleanly. *)

val create : ?seed:int -> Cpu.t array -> t
(** Build a machine over the given cores (core 0 the primary, the rest
    its siblings from {!Cpu.create_sibling}).  [seed] (default 1)
    drives the scheduler. *)

val run : t -> (int -> unit) array -> unit
(** [run t fns] runs [fns.(i) i] on core [i], interleaved per µ-event.
    With one core this is a plain call — no hooks, no scheduler — so a
    1-core machine is byte-identical to the single-core one.  A core
    inside {!Cpu.atomically} does not yield, so its block runs without
    interleaving.  An exception from any fiber aborts the schedule:
    paused siblings are unwound with {!Aborted} and the original
    exception is re-raised.  The machine keeps no ambient state. *)

type stats = {
  steps : int;  (** scheduling decisions taken *)
  contended_steps : int;  (** decisions with >= 2 runnable cores *)
  switches : int;  (** decisions that moved to a different core *)
  invalidations : int;  (** coherence line invalidations *)
}

val stats : t -> stats
val cores : t -> Cpu.t array
