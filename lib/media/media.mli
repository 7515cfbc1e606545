(** Seeded, deterministic NVM media-error injector.

    Real persistent-memory devices return wrong or unreadable bytes:
    wear-induced single-bit flips, uncorrectable poisoned cache lines,
    and transient read failures that clear after a retry.  This module
    models all three as a {e pure function of [(seed, frame, word)]} —
    fault placement does not depend on access order, so a crash/reopen
    cycle, a re-run, or a different [--jobs] split replays bit-identical
    faults.  Each injector instance owns all of its mutable state
    (healed words, local fault counts), so per-domain instances are
    share-nothing.

    A fault lives at a media location until the location is written
    again: any store through the normal memory path re-establishes the
    cell ("heals" it), exactly like rewriting a poisoned line on real
    hardware.  Raw {!Nvml_simmem.Physmem.poke} writes do {e not} heal —
    that is the backdoor tests use to plant corruption by hand. *)

exception Media_error of string
(** Raised on an uncorrectable media fault (a poisoned line, a retry
    budget exhausted) and by the integrity layer above ([Freelist],
    [Pmop], [Scrub]) when checksummed metadata fails verification or a
    degraded pool refuses a write.  Typed so callers can distinguish
    device trouble from logic bugs ([Corrupt_arena]). *)

type kind =
  | Bit_flip  (** a single flipped bit in one 64-bit word *)
  | Poison_line  (** an uncorrectable 64-byte line: reads raise *)
  | Transient  (** a read that fails, then succeeds within the retry budget *)

val all_kinds : kind list
val kind_name : kind -> string

type t

val create : ?kinds:kind list -> rate:float -> seed:int -> unit -> t
(** [create ~rate ~seed ()] — [rate] is the per-word (per-line for
    poison) fault probability for each enabled [kind].  Faults are only
    ever injected into NVM frames. *)

val attach : Nvml_simmem.Physmem.t -> t -> unit
(** Install the injector's read/write hooks into the machine.  The
    hooks survive {!Nvml_simmem.Physmem.crash}: the media does not
    forget its defects just because power was lost. *)

val detach : Nvml_simmem.Physmem.t -> unit

val decide : t -> frame:int -> word_index:int -> kind option
(** The pure placement function: which fault, if any, lives at this
    word when it has not been healed.  This is the injection ground
    truth the bench coverage matrix is scored against. *)

val healed : t -> frame:int -> word_index:int -> bool

val words_per_line : int
(** Words per poison granule (a 64-byte line = 8 words). *)

(** {2 Per-injector fault statistics}

    Local counts (independent of the telemetry gate) for reports. *)

val flips_served : t -> int
val poisons_served : t -> int
val transients_served : t -> int
val healed_words : t -> int
