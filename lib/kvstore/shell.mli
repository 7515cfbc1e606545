(** An interactive persistent key-value store over the simulator: one
    pool, one index structure anchored at the pool root, a line-oriented
    command interpreter ([put]/[get]/[del]/[size]/[keys]/[crash]/
    [stats]/[help]) and a [crash] command that power-cycles the machine
    — committed data survives, relocated to a fresh mapping.  [crash
    torn] additionally tears the most recent persistent store (a seeded
    byte-mix of its old and new value) before the power goes out. *)

module Runtime = Nvml_runtime.Runtime

type t

val create : ?mode:Runtime.mode -> ?structure:string -> ?seed:int -> unit -> t
(** [structure] names any registry structure (default "RB").  [seed]
    (default 0) drives the torn-write byte masks, and nothing else, so
    scripted sessions replay bit-identically under fault injection.
    @raise Invalid_argument in the [Volatile] mode, which has no pool to
    keep the map in. *)

val exec : t -> string -> string list
(** Execute one command line; returns the reply lines. *)
