(** Systematic crash-point fault injection for the persistence stack.

    One engine, {!run}, sweeps every workload.  A reference pass counts
    every persistence-relevant event ({!Nvml_simmem.Fi.event}) of a
    workload while the workload's oracle records what a crash at each
    event must recover to, and records the durable NVM image a crash at
    each chosen event leaves: the NVM words that became durable since
    boot, shared by every point, plus the point's torn word.  Each crash
    pass then installs its point's image in the pool frames of a fresh
    machine and reboots it (DRAM and all mappings vanish); it runs no
    workload operation, so no machine ever runs past its crash point
    and nothing freezes the media.  After reboot and pool re-open, the
    workload's post-reboot check compares the recovered state with the
    oracle's prediction.

    The transactional workloads ({!counter_workload}, {!kv_workload})
    run their operations under [Txn.instrument]: plain
    [Runtime.store_*] calls in legacy structure code are undo-logged
    transparently, so the sweep exercises exactly the user-transparent
    persistence story the paper argues for.  The checker validates the
    recovery verdict, structural invariants, pointer reachability,
    atomicity against the op-boundary snapshots, and persistent-freelist
    consistency.

    Under a relaxed persistency model ([?persist]) the oracle predicts,
    for every crash point, the exact recovery verdict and the exact
    operation boundary the recovered state must equal (the legitimately
    lost op suffix).  Crash passes check the observation against the
    prediction in both directions — losing more than predicted and
    retaining more than predicted are both hard violations. *)

module Runtime = Nvml_runtime.Runtime
module Persist = Nvml_runtime.Persist
module Txn = Nvml_runtime.Txn

(** {1 Workloads} *)

type workload
(** A sweep target: its boot, its reference run with its per-event
    oracle step, an optional tear rule (torn writes) and its
    post-reboot check.  Built only by the three constructors below. *)

val counter_workload : ?ops:int -> unit -> workload
(** A flat array of 8 persistent counters; each op is a transaction of
    three scattered stores.  The smallest interesting sweep target. *)

val kv_workload :
  ?structure:string -> ?records:int -> ?ops:int -> ?seed:int -> unit -> workload
(** The KV-harness shape: populate a Table III structure ([structure]
    as in [Registry.find_map]), then run a YCSB stream with every
    seventh op replaced by a remove (so pfree is exercised too). *)

val conc_workload :
  ?cores:int -> ?ops_per_core:int -> ?sched_seed:int -> unit -> workload
(** The durably-linearizable concurrent structures ([Conc_counter],
    [Conc_list]) on a [cores]-core machine (default 2), each core
    running [ops_per_core] operations (default 8) of a seeded
    interleaving ([sched_seed], default 1).  No transactions: after a
    crash at any persistence event of any core, the recovered counter
    and chain must equal the oracle's durable-value walk at that event,
    and under [Eager] they must also lie between the completed and the
    invoked operation sets (the crash-resilient-object criterion).  Its
    outcomes report [recovery = Clean], [lost_ops = 0], no tear, and
    [op] = the operations completed when power failed; [spec.torn] and
    [spec.break_recovery] do not apply (there is no undo log).
    @raise Invalid_argument if [cores < 1]. *)

(** {1 Sweep specification} *)

type spec = {
  every_n : int;  (** crash at events [0, n, 2n, ...] when [at] is empty *)
  at : int list;
      (** explicit event indices; an out-of-range index raises
          [Invalid_argument] naming the valid range rather than
          silently running zero passes *)
  torn : bool;
      (** additionally tear the interrupted word (seeded byte mix of
          old/new) — except undo-log words, which the log protocol's
          8-byte-atomicity assumption covers *)
  seed : int;  (** drives the torn byte masks *)
  max_points : int option;  (** bound the sweep (for smoke runs) *)
  break_recovery : bool;
      (** checker self-test: skip [Txn.recover] after the crash and
          let the checker prove it notices *)
}

val default_spec : spec
(** Every event, no tearing, seed 1, unbounded, recovery intact. *)

(** {1 Results} *)

(** Events of the reference pass by kind; the six counts sum to
    [report.events]. *)
type tally = {
  pm_stores : int;
  storeps : int;
  log_appends : int;
  meta_writes : int;
  flushes : int;  (** drain [Flush_line] µ-events (relaxed models only) *)
  fences : int;  (** drain [Fence] µ-events (relaxed models only) *)
}

type outcome = {
  point : int;  (** the event index the crash interrupted *)
  op : int;
      (** the operation that event belonged to (conc: the operations
          completed when power failed) *)
  kind : string;
  recovery : Txn.recovery;
  lost_ops : int;
      (** committed {e mutating} operations whose effects the
          persistency model legitimately let die at this point —
          read-only ops leave nothing to lose and are not counted
          (always 0 under eager) *)
  torn_injected : bool;
  violations : string list;
}

type report = {
  workload : string;
  mode : string;  (** {!Runtime.mode_name} of the swept machines *)
  torn_seed : int option;
      (** [spec.seed] when [spec.torn] applied (not for conc) *)
  sched_seed : int option;  (** the conc workload's [sched_seed] *)
  persist : string;  (** {!Persist.model_name} of the swept model *)
  ops : int;
  events : int;
  tally : tally;
  outcomes : outcome list;  (** in event-index order *)
  clean : int;
  rolled_back : int;
  suffix_lost : int;  (** points at which >= 1 committed op was lost *)
  torn_injected : int;
  violations : (int * string) list;
}

val run :
  ?par:((unit -> outcome) list -> outcome list) ->
  ?mode:Runtime.mode ->
  ?persist:Persist.model ->
  ?spec:spec ->
  ?timing:bool ->
  workload ->
  report
(** Run the sweep.  Each crash pass builds a share-nothing machine, so
    [par] (e.g. [Nvml_exec.Pool.run pool]) may run them on worker
    domains: every pass goes to [par] in one call, results are in
    submission order and identical to the sequential default.  [mode]
    defaults to [Hw]; [persist] to [Persist.Eager] (per-operation
    atomicity, the historical checker, now expressed as the oracle's
    degenerate case).  Every machine the sweep boots runs
    [Config.default] at speed [timing] (default [false]): crash-point
    enumeration and recovery verdicts are functional, so the sweep uses
    fast functional simulation; pass [true] for the cycle-accurate core
    (identical report, slower).
    @raise Invalid_argument for [Volatile] mode or an out-of-range
    [spec.at] index. *)

(** {1 Crash images}

    What a crash pass installs, and a reference to check it against,
    for tests.  Both boot their machines as {!run} does, on the fast
    core. *)

val crash_images :
  ?mode:Runtime.mode ->
  ?persist:Persist.model ->
  ?spec:spec ->
  workload ->
  (int * bool * Runtime.t) list
(** [(point, torn, machine)] for each point [spec] selects, in event
    order: the fresh machine a crash pass at [point] boots, with the
    point's image in its pool frames, before its reboot; [torn] is the
    pass's [torn_injected]. *)

val drive :
  ?mode:Runtime.mode ->
  ?persist:Persist.model ->
  ?spec:spec ->
  workload ->
  (Runtime.t ->
  int ->
  Nvml_simmem.Fi.event ->
  tear:(unit -> (int * int * int64) option) ->
  unit) ->
  unit
(** Boot [workload] as a sweep does and run its operations with
    [hook rt i ev ~tear] seeing event [i] before it lands.  [tear ()]
    is the word [spec]'s tear rule tears at that event, as (frame, word
    index, torn value), before the engine places it in an image.  A
    hook that raises stops the run; the exception propagates. *)

val pp_report : report Fmt.t
(** Multi-line summary inside a vertical box: counts per event kind,
    the mode and the seeds that ran, recovery totals, and every
    violation with its crash point. *)
