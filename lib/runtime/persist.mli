(** Buffered persistency engine: the retention-model spectrum of
    Wang & Tuck between eager per-store persistence and epoch/lazy
    draining of dirty lines.

    The media always holds the {e newest} value of every word; under a
    relaxed model the engine remembers per dirty word the value that is
    actually durable.  {!drain} flushes whole 64-byte lines with
    explicitly modeled flush+fence µ-events ({!Fi.Flush_line},
    {!Fi.Fence}); {!crash} pokes every still-buffered word back to its
    durable value so the rebooted machine sees exactly what the media
    retained.

    Host cost: the dirty set is indexed by 64-byte line, so a buffered
    store is one table probe, a drain is O(L log L) in its L dirty
    lines and a crash is O(dirty words) — independent of how large
    earlier epochs grew the buffer.  An eager engine allocates no
    buffer storage. *)

type model =
  | Eager  (** Every store persists in place — the historical behavior,
               bit-identical to the engine not existing. *)
  | Epoch of { interval : int }
      (** Drain every [interval] operations (per-core counters, shared
          drain buffer). *)
  | Lazy_on_detach  (** Drain only at pool detach / explicit sync. *)

val model_name : model -> string
(** ["eager"], ["epoch:N"], ["lazy"]. *)

val model_of_string : string -> (model, string) result
(** Inverse of {!model_name}, case-insensitive; accepts
    [eager | epoch:N | lazy] where [N] is a decimal integer [>= 1].  An
    empty, signed, hexadecimal, underscored or out-of-range interval is
    an [Error] naming the problem. *)

val is_eager : model -> bool

type t

val create : model -> Nvml_simmem.Physmem.t -> t
(** Create the engine for one machine.  For a relaxed model this arms
    the {!Nvml_simmem.Physmem.set_persist_note} hook; an [Eager] engine
    leaves the write path untouched. *)

val model : t -> model
val pending_words : t -> int

val with_eager : t -> (unit -> 'a) -> 'a
(** Run [f] with buffering suspended: stores made inside reach media
    immediately (and un-buffer any word they overwrite).  Used by the
    undo log — log records must be durable before their epoch's data
    drains — and by recovery replay. *)

val buffering : t -> bool
(** Whether an NVM word stored now would be buffered: a relaxed model
    outside {!with_eager}.  A store made while this is [false] is
    durable as it lands. *)

val set_drain_hook : t -> (unit -> unit) option -> unit
(** Hook run at the end of every non-empty {!drain}, after the fence:
    the undo log registers its truncation here, so a completed drain
    also retires the log entries it made redundant.  Cleared by
    {!crash}. *)

val drain : t -> cpu:Nvml_arch.Cpu.t -> cfg:Nvml_arch.Config.t -> unit
(** Drain every buffered line in ascending address order: per line one
    {!Nvml_simmem.Fi.Flush_line} µ-event (a fault-injection hook may
    raise — that line and everything after it is lost) and
    [cfg.flush_latency] stall cycles on [cpu]; then one
    {!Nvml_simmem.Fi.Fence}, [cfg.fence_latency] stall cycles and the
    drain hook.  Fast mode counts the events but charges nothing.
    No-op under [Eager] or with nothing pending. *)

val buffered_in_line : t -> frame:int -> line:int -> (int * int64) list
(** The still-buffered words of one 64-byte line, as (word index within
    the frame, durable value) pairs in address order — what a crash
    mid-flush of that line is tearing between.  Empty under [Eager]. *)

val durable_value : t -> frame:int -> word_index:int -> int64
(** What a crash at this instant would retain for the word: the
    buffered epoch-start value if dirty, the media value otherwise.
    The contract oracle's ground truth. *)

val crash : t -> unit
(** Power failure: poke every still-buffered word back to its durable
    value, forget the buffer, reset passthrough depth and drain hook.
    The persist note stays armed — the model is a property of the
    machine, not of the power cycle. *)

val publish : t -> unit
(** Fold the engine's event counts into telemetry ([persist.*]). *)

val flushes : t -> int
val fences : t -> int
val drains : t -> int
val stores_buffered : t -> int

val crash_dropped : t -> int
(** Buffered words {!crash} has reverted, summed over power cycles. *)
