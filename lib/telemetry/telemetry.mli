(** Cross-layer telemetry: named counters and histograms, a bounded
    ring-buffer event tracer with spans, and per-domain sinks that the
    execution pool merges deterministically at join.

    All recording is gated on a process-wide flag (off by default; the
    [--stats]/[--trace] flags and {!set_enabled} turn it on).  Hot-path
    callers write [if Telemetry.enabled () then Telemetry.incr c]; when
    the flag is off the cost is one atomic load.  The timing model never
    reads telemetry, so enabling it cannot change simulated cycles. *)

(** {1 Enable flag} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Registry}

    Metrics are registered by name in a process-wide, mutex-guarded
    registry.  Registering the same name twice returns the same handle;
    registering a name as both a counter and a histogram raises
    [Invalid_argument]. *)

type counter
type histo
type latency

val counter : string -> counter
val histo : string -> histo

val latency : string -> latency
(** A named HDR-style latency recorder (see {!Latency}): log-bucketed
    with {!Latency.precision_bits} sub-bucket bits, so percentiles are
    within {!Latency.rel_error_bound} of exact. *)

(** {1 Recording}

    Values accumulate in the calling domain's current {!sink}. *)

val incr : counter -> unit
val add : counter -> int -> unit
val observe : histo -> int -> unit

val record : latency -> int -> unit
(** Record one latency observation; allocation-free once the sink's
    recorder exists (first call per sink allocates it). *)

val event : ?args:(string * int) list -> string -> unit
(** Record an instant event in the bounded trace ring. *)

val span : ?args:(string * int) list -> string -> (unit -> 'a) -> 'a
(** [span name f] brackets [f ()] with begin/end trace events.  The end
    event is recorded even if [f] raises. *)

val set_trace_capacity : int -> unit
(** Ring capacity for subsequently created sinks (default 8192).  When
    full, the oldest events are overwritten. *)

(** {1 Sinks}

    A sink holds counter/histogram values and the trace ring for one
    execution context.  Each domain has a current sink; the pool runs
    every task in a fresh sink and merges them into the submitter's
    sink in submission order, making [--jobs N] output bit-identical to
    [--jobs 1]. *)

type sink

val fresh_sink : unit -> sink
val current_sink : unit -> sink

val run_with_sink : sink -> (unit -> 'a) -> 'a
(** [run_with_sink s f] makes [s] the calling domain's current sink for
    the duration of [f ()], restoring the previous sink afterwards. *)

val merge_into : dst:sink -> sink -> unit
(** Fold [src]'s values into [dst]: counters and histogram cells add;
    trace events append after [dst]'s existing events. *)

(** {1 Reading}

    All snapshots read the calling domain's current sink and are sorted
    by metric name, so their shape does not depend on execution order. *)

val value : counter -> int

type histo_stats = {
  count : int;
  sum : int;
  min : int;
  max : int;
  mean : float;
  log2_buckets : (int * int) list;
      (** [(upper_bound, count)] for non-empty power-of-two buckets:
          bucket with bound [b] counts observations [v] with
          [prev_bound < v <= b]. *)
}

val counters_snapshot : unit -> (string * int) list
(** Every registered counter (zeros included), sorted by name. *)

val histos_snapshot : unit -> (string * histo_stats) list
(** Histograms with at least one observation, sorted by name. *)

val lats_snapshot : unit -> (string * Latency.t) list
(** Latency recorders with at least one observation, sorted by name. *)

type phase = Begin | End | Instant

type event = { ename : string; phase : phase; args : (string * int) list }

val events_snapshot : unit -> event list
(** The events still in the trace ring, oldest first. *)

val events_total : unit -> int
val events_dropped : unit -> int

val reset_current : unit -> unit
(** Zero all values and clear the trace ring of the current sink. *)

(** {1 Dumps} *)

val stats_json : derived:(string * float) list -> unit -> Json.t
(** Stats document: [{"schema": 1, "derived": {...}, "counters": {...},
    "histograms": {...}, "latencies": {...}, ...}].  [derived] carries
    precomputed rates (e.g. ["valb.hit_rate"]); latency entries are
    {!Latency.summary_json} rows. *)

val write_stats_json : ?derived:(string * float) list -> out_channel -> unit

val write_chrome_trace : out_channel -> unit
(** Chrome [trace_event] JSON (load in [chrome://tracing] or Perfetto).
    Timestamps are logical positions in the merged event stream. *)
