(* Persistent undo-log transactions — the crash-consistency mechanism
   the paper's Section VI leaves to the application ("if the call is
   enclosed in a persistent transaction... the compiler inserts the
   necessary runtime logging").  This module is that runtime: an undo
   log living *inside* the pool, so it survives crashes, the store
   interceptor that logs every pool store of an open transaction
   ([instrument]), and post-crash recovery.

   Log layout (word offsets from the log object):
     0  state      (0 = idle, 1 = active)
     8  count      (valid entries)
     16 capacity
     24 first entry; each entry is 16 bytes: (cell address in relative
        format — it must survive remapping — , previous raw value)

   Protocol: every tracked store first appends (cell, old value) to the
   log and bumps the persistent count, then performs the store.  Commit
   truncates the log and clears the active flag; abort (or recovery
   after a crash that interrupted an active transaction) replays the
   log backwards. *)

module Ptr = Nvml_core.Ptr
module Xlate = Nvml_core.Xlate
module Mem = Nvml_simmem.Mem
module Physmem = Nvml_simmem.Physmem
module Fi = Nvml_simmem.Fi
module Pmop = Nvml_pool.Pmop
module Telemetry = Nvml_telemetry.Telemetry

let c_begins = Telemetry.counter "txn.begins"
let c_commits = Telemetry.counter "txn.commits"
let c_aborts = Telemetry.counter "txn.aborts"
let c_logged = Telemetry.counter "txn.logged_words"
let c_recoveries = Telemetry.counter "txn.recoveries"

let o_state = 0
let o_count = 8
let o_capacity = 16
let o_entries = 24

type t = {
  rt : Runtime.t;
  pool : int;
  log : Ptr.t;
  capacity : int;
  (* Reentrancy guard: the log's own stores (appends, rollback
     restores, state/count updates) must not be re-logged by the store
     interceptor.  Exported as [logging]. *)
  mutable busy : bool;
  (* Volatile "an operation is open" flag.  Under the eager model it
     mirrors the persistent state word; under a relaxed model the log
     stays active (and accumulates entries) across the whole epoch, so
     per-operation bracketing must be tracked off-media. *)
  mutable in_op : bool;
}

exception Log_full
exception Not_active
exception Already_active

let site = Site.make ~static:true "txn.log"

let default_capacity = 4096

(* The log's own stores are kept out of the log by the [busy] guard
   and — under a relaxed persistency model — written through to media
   immediately ([Persist.with_eager]): log records must be durable
   before the epoch's data drains, or the undo information a crash
   needs could itself be lost with the epoch. *)
let with_busy t f =
  if t.busy then f ()
  else begin
    t.busy <- true;
    Fun.protect
      ~finally:(fun () -> t.busy <- false)
      (fun () -> Persist.with_eager (Runtime.persist t.rt) f)
  end

let state t = Runtime.load_word t.rt ~site t.log ~off:o_state
let count t = Int64.to_int (Runtime.load_word t.rt ~site t.log ~off:o_count)
let is_active t = Int64.equal (state t) 1L

(* Under a relaxed model a completed drain has made the epoch's data
   durable, so the log entries covering it are dead: truncate.  The
   drain engine calls this after its fence.  Epoch boundaries must sit
   between operations — a drain inside an open operation would
   truncate undo information the operation still needs. *)
let on_drain t () =
  if t.in_op then
    invalid_arg "Txn: persistency drain inside an open operation";
  if is_active t then
    with_busy t (fun () ->
        Runtime.store_word t.rt ~site t.log ~off:o_count 0L;
        Runtime.store_word t.rt ~site t.log ~off:o_state 0L)

let register_drain_hook t =
  if Runtime.persist_relaxed t.rt then
    Persist.set_drain_hook (Runtime.persist t.rt) (Some (on_drain t))

(* Allocate a fresh log inside [pool].  The header stores run in
   [with_busy] so they are immediately durable under every model — the
   log must never itself be buffered. *)
let create rt ~pool ?(capacity = default_capacity) () =
  let bytes = o_entries + (capacity * 16) in
  let log = Runtime.alloc rt ~pool ~persistent:true bytes in
  let t = { rt; pool; log; capacity; busy = false; in_op = false } in
  with_busy t (fun () ->
      Runtime.store_word rt ~site log ~off:o_state 0L;
      Runtime.store_word rt ~site log ~off:o_count 0L;
      Runtime.store_word rt ~site log ~off:o_capacity (Int64.of_int capacity));
  register_drain_hook t;
  t

let header t = t.log
let logging t = t.busy

(* Re-find a log after restart from its (relative) handle. *)
let attach rt log =
  let capacity =
    Int64.to_int (Runtime.load_word rt ~site log ~off:o_capacity)
  in
  let pool =
    match Runtime.region_of_ptr rt log with
    | Runtime.Pool_region p -> p
    | Runtime.Dram_region -> invalid_arg "Txn.attach: log is not persistent"
  in
  let t = { rt; pool; log; capacity; busy = false; in_op = false } in
  register_drain_hook t;
  t

let begin_ t =
  if Runtime.persist_relaxed t.rt then begin
    (* Relaxed models: the log covers the whole open epoch, so a new
       operation joins an already-active log rather than truncating
       it — the accumulated entries still protect this epoch's earlier
       (not yet drained) operations. *)
    if t.in_op then raise Already_active;
    Telemetry.incr c_begins;
    t.in_op <- true;
    if not (is_active t) then
      with_busy t (fun () ->
          Runtime.store_word t.rt ~site t.log ~off:o_count 0L;
          Runtime.store_word t.rt ~site t.log ~off:o_state 1L)
  end
  else begin
    if is_active t then raise Already_active;
    Telemetry.incr c_begins;
    t.in_op <- true;
    with_busy t (fun () ->
        Runtime.store_word t.rt ~site t.log ~off:o_count 0L;
        Runtime.store_word t.rt ~site t.log ~off:o_state 1L)
  end

(* Record the current value of [cell] before it is overwritten.  The
   logged address is the cell's relative form so it stays valid across
   crashes and remaps. *)
let log_cell t (cell : Ptr.t) =
  with_busy t (fun () ->
      let n = count t in
      if n >= t.capacity then raise Log_full;
      Telemetry.incr c_logged;
      Physmem.fire (Mem.phys (Runtime.mem t.rt)) Fi.Txn_log_append;
      let rel_cell = Xlate.va2ra (Runtime.xlate t.rt) cell in
      if not (Ptr.is_relative rel_cell) then
        invalid_arg "Txn: transactional stores must target pool memory";
      let old = Runtime.load_word t.rt ~site rel_cell ~off:0 in
      let entry_off = o_entries + (n * 16) in
      Runtime.store_word t.rt ~site t.log ~off:entry_off rel_cell;
      Runtime.store_word t.rt ~site t.log ~off:(entry_off + 8) old;
      Runtime.store_word t.rt ~site t.log ~off:o_count (Int64.of_int (n + 1)))

(* Replay the undo log backwards, restoring the exact raw words.
   Under a relaxed model the log spans the whole open epoch, so this
   lands exactly on the last-drained (epoch-consistent) state. *)
let roll_back t =
  t.in_op <- false;
  with_busy t (fun () ->
      for i = count t - 1 downto 0 do
        let entry_off = o_entries + (i * 16) in
        let cell = Runtime.load_word t.rt ~site t.log ~off:entry_off in
        let old = Runtime.load_word t.rt ~site t.log ~off:(entry_off + 8) in
        Runtime.store_word t.rt ~site cell ~off:0 old
      done;
      Runtime.store_word t.rt ~site t.log ~off:o_count 0L;
      Runtime.store_word t.rt ~site t.log ~off:o_state 0L)

let commit t =
  if Runtime.persist_relaxed t.rt then begin
    (* The log cannot truncate yet: the operation's data is still
       buffered, and a crash before the epoch drains must roll the
       whole epoch back.  Truncation happens in [on_drain]. *)
    if not t.in_op then raise Not_active;
    Telemetry.incr c_commits;
    t.in_op <- false
  end
  else begin
    if not (is_active t) then raise Not_active;
    Telemetry.incr c_commits;
    t.in_op <- false;
    with_busy t (fun () ->
        Runtime.store_word t.rt ~site t.log ~off:o_count 0L;
        Runtime.store_word t.rt ~site t.log ~off:o_state 0L)
  end

let abort t =
  if not (if Runtime.persist_relaxed t.rt then t.in_op else is_active t) then
    raise Not_active;
  Telemetry.incr c_aborts;
  roll_back t

type recovery = Clean | Rolled_back of int

(* Post-crash recovery: an active log means the crash interrupted a
   transaction — undo it.  The log lives in pool memory, so the media
   can have damaged it between the crash and this recovery; an
   unreadable log word is re-raised with enough context to find the
   pool, rather than surfacing as a bare device error mid-rollback. *)
let recover t =
  Telemetry.incr c_recoveries;
  try
    if is_active t then begin
      let n = count t in
      Telemetry.event ~args:[ ("rolled_back", n) ] "txn.recover";
      roll_back t;
      Rolled_back n
    end
    else Clean
  with Nvml_media.Media.Media_error m ->
    raise
      (Nvml_media.Media.Media_error
         (Fmt.str "recovery: undo log of pool %d unreadable: %s" t.pool m))

(* --- user-transparent instrumentation ------------------------------------

   The paper's Section VI: legacy library code is not rewritten against
   a transactional store API — instead "the compiler inserts the
   necessary runtime logging" around ordinary stores inside a persistent
   transaction.  [instrument] models exactly that: it points the
   runtime's store interceptor and the pool manager's metadata hook at
   this log, so that while a transaction is active {e every} store
   targeting pool memory (including freelist updates made by pmalloc /
   pfree) is undo-logged first.  Structure code written against plain
   [Runtime.store_*] becomes failure-atomic with no source changes.

   The [busy] guard keeps the log's own stores out of the log; the
   hooks are volatile and vanish on [Runtime.crash_and_restart], so
   recovery code must re-register (or run uninstrumented). *)

let instrument t =
  Runtime.set_store_interceptor t.rt
    (Some (fun cell -> if (not t.busy) && is_active t then log_cell t cell));
  Pmop.set_meta_hook (Runtime.pmop t.rt)
    (Some
       (fun ~pool ~offset ->
         if (not t.busy) && is_active t then
           log_cell t (Ptr.make_relative ~pool ~offset)))

(* Run [f] in a transaction: commit on return, roll back on exception. *)
let run t f =
  begin_ t;
  match f () with
  | result ->
      commit t;
      result
  | exception e ->
      abort t;
      raise e
