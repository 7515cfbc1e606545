(** Persistent undo-log transactions — the crash-consistency layer the
    paper's Section VI assumes the application provides.

    The undo log lives inside the pool, so it survives crashes.  There
    is no transactional store call: after {!instrument}, every ordinary
    [Runtime.store_word]/[store_ptr] to pool memory inside a
    transaction first appends (cell, previous value) to the log, as the
    paper's compiler-inserted logging would.  A crash that interrupts
    an active transaction is healed by {!recover}, which replays the
    log backwards.

    Under a relaxed persistency model ([Runtime.persist_relaxed]) the
    log's own stores are written through to media immediately
    ([Persist.with_eager]) — the write-ahead rule "log records reach
    media before their epoch's data drains" — and the log covers the
    whole open {e epoch} rather than one operation: {!commit} does not
    truncate (the committed data is still buffered), truncation happens
    when the epoch drains, and a crash before the drain rolls the whole
    epoch back to the last drained state.  {!abort} consequently also
    rolls back to the last epoch boundary, not to the start of the
    current operation. *)

module Ptr = Nvml_core.Ptr

type t

exception Log_full
exception Not_active
exception Already_active

val create : Runtime.t -> pool:int -> ?capacity:int -> unit -> t
(** Allocate a fresh log of [capacity] entries (default 4096) inside
    [pool]. *)

val header : t -> Ptr.t
(** The log object's handle — anchor it (e.g. in the pool root) so
    {!attach} can find it after a restart. *)

val o_state : int
val o_count : int
(** Byte offsets in the log object of its state word (1 while a
    transaction, or under a relaxed model an epoch, is open; else 0)
    and of its count of valid entries. *)

val attach : Runtime.t -> Ptr.t -> t

val is_active : t -> bool
val count : t -> int
(** Entries currently in the log. *)

val logging : t -> bool
(** True while the log makes its own stores: its header and entries
    ({!begin_}, each logged store's append, {!commit}, an epoch
    drain's truncation) and a rollback's restores ({!abort},
    {!recover}).  Every other pool store is a data store.  The log's
    stores rely on the 8-byte atomicity of aligned NVM word stores, so
    a torn-write injector must leave them whole. *)

val begin_ : t -> unit
(** @raise Already_active on nested transactions. *)

val commit : t -> unit
val abort : t -> unit
(** Roll every logged store back, newest first. *)

type recovery = Clean | Rolled_back of int

val recover : t -> recovery
(** Post-crash: undo an interrupted transaction if the log is active.

    [Rolled_back n] restores the exact pre-transaction image when
    [n > 0].  [Rolled_back 0] and [Clean] are both possible after a
    crash {e between} the two commit stores (count is truncated before
    the active flag clears), in which case the post-transaction image
    is already durable — callers validating atomicity must accept
    either snapshot for those two results. *)

val instrument : t -> unit
(** Register this transaction as the runtime's store logger — the
    paper's "compiler inserts the necessary runtime logging", and the
    only way a store is logged: while a transaction is active, every
    store targeting pool memory through [Runtime.store_word]/[store_ptr]
    {e and} every allocator-metadata write (pmalloc/pfree freelist
    updates) is undo-logged before it executes, so unmodified legacy
    structure code becomes failure-atomic between {!begin_} and
    {!commit}.  A store outside a transaction, or to DRAM, is not
    logged.  A logged store narrates, in order, the [is_active] load,
    the log append and the store itself.  The hooks are volatile: a
    [Runtime.crash_and_restart] clears them, and recovery code
    re-registers on a freshly {!attach}ed log if desired.
    @raise Log_full from the store that overflows the log. *)

val run : t -> (unit -> 'a) -> 'a
(** Run the function transactionally: commit on return, roll back and
    re-raise on exception. *)
