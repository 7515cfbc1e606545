(** Cross-layer telemetry: named counters and HDR latency recorders, a
    bounded ring-buffer event tracer with spans, and per-domain sinks
    that the execution pool merges deterministically at join.

    All recording is gated on a process-wide flag, off by default and
    turned on over a scope by {!recording} (the [--stats]/[--trace]
    flags).  The recording calls test it themselves: a call with the
    flag off costs one atomic load and a branch, so callers never
    guard one.  The timing model never reads telemetry, so enabling it
    cannot change simulated cycles. *)

(** {1 Enable flag} *)

val enabled : unit -> bool
(** Whether recording is on; read by the execution pool to give each
    task a sink. *)

val set_enabled : bool -> unit
(** Set the flag for the rest of the process; {!recording} is the
    scoped form. *)

(** {1 Registry}

    Metrics are registered by name in a process-wide, mutex-guarded
    registry.  Registering the same name twice returns the same handle;
    registering a name as both a counter and a latency recorder raises
    [Invalid_argument]. *)

type counter
type latency

val counter : string -> counter

val latency : string -> latency
(** A named HDR-style recorder (see {!Latency}) — the one distribution
    kind: log-bucketed with {!Latency.precision_bits} sub-bucket bits,
    so percentiles are within {!Latency.rel_error_bound} of exact, and
    every value below 64 is recorded exactly (storeP occupancy and VATB
    walk depth use it too). *)

(** {1 Recording}

    Values accumulate in the calling domain's current {!sink}.  Each
    call does nothing while the flag is off. *)

val incr : counter -> unit
val add : counter -> int -> unit

val record : latency -> int -> unit
(** Record one observation; allocation-free once the sink's
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

    A sink holds counter values, latency recorders and the trace ring
    for one execution context.  Each domain has a current sink; the
    pool runs every task in a fresh sink and merges them into the
    submitter's sink in submission order, making [--jobs N] output
    bit-identical to [--jobs 1]. *)

type sink

val fresh_sink : unit -> sink
val current_sink : unit -> sink

val run_with_sink : sink -> (unit -> 'a) -> 'a
(** [run_with_sink s f] makes [s] the calling domain's current sink for
    the duration of [f ()], restoring the previous sink afterwards. *)

val recording : (unit -> 'a) -> 'a
(** [recording f] turns the flag on and runs [f ()] in a fresh sink,
    then restores the previous flag and sink, also when [f] raises.
    Read the sink (snapshots, dumps) inside [f]. *)

val merge_into : dst:sink -> sink -> unit
(** Fold [src]'s values into [dst]: counters and latency cells add;
    trace events append after [dst]'s existing events. *)

(** {1 Reading}

    All snapshots read the calling domain's current sink and are sorted
    by metric name, so their shape does not depend on execution order. *)

val value : counter -> int

val counters_snapshot : unit -> (string * int) list
(** Every registered counter (zeros included), sorted by name. *)

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
(** The stats document every command writes: [{"schema": 1, "derived":
    {...}, "counters": {...}, "latencies": {...}, "events_total": n,
    "events_dropped": n}].  [derived] carries precomputed rates (e.g.
    ["valb.hit_rate"]); latency entries are {!Latency.summary_json}
    rows. *)

val write_stats_json : ?derived:(string * float) list -> out_channel -> unit

val write_trace : out_channel -> (int * int * event) list -> unit
(** The one Chrome [trace_event] writer (load in [chrome://tracing] or
    Perfetto): one row per [(tid, ts, event)], in the order given. *)

val write_chrome_trace : out_channel -> unit
(** The trace ring through {!write_trace}, on thread 0.  Timestamps
    are logical positions in the merged event stream. *)
