(** Static program sites.

    Every pointer-operation call site in library or application code is
    described by a [Site.t]: a stable synthetic PC (the address of the
    check code the compiler would emit there, used to index the branch
    predictor) and a [static] flag recording whether pointer-property
    inference resolved the operand's format at compile time.

    [static = true] sites emit no dynamic check in the SW configuration
    (e.g. values flowing straight out of an allocator call); the
    default, [static = false], is the fate of library code reached
    through opaque parameters. *)

type t

val make : ?static:bool -> string -> t
(** Register a new site.  [static] defaults to [false]. *)

val intern : ?static:bool -> string -> t
(** Like {!make}, but idempotent per [(name, static)] pair: callers
    that mint sites at run time (the mini-C interpreter) get the same
    site — and the same synthetic PC — every time the same program
    point is reached again, keeping repeated in-process runs
    cycle-deterministic. *)

val pc : t -> int
val name : t -> string
val is_static : t -> bool

val check_counter : t -> Nvml_telemetry.Telemetry.counter
(** The site's dynamic-check telemetry counter (name ["site.<name>"]). *)

val checks : t -> int
(** Dynamic checks recorded at this site in the current telemetry
    sink. *)

val with_prefix : string -> t list
(** Sites registered so far whose name starts with [prefix] (e.g.
    ["rb."]), in registration order.  Each non-static site is a place an
    explicit-API migration would edit by hand — the basis of the
    productivity analysis and of the per-structure check profile. *)
