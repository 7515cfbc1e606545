(* Systematic crash-point fault injection for the persistence stack.

   One engine sweeps every workload.  A *reference* pass counts every
   persistence-relevant event (NVM word stores, storeP retirements,
   undo-log appends, allocator-metadata writes, drain µ-events — see
   [Nvml_simmem.Fi]) while the workload's per-event oracle step records
   what a crash at that event must recover to.  The same pass records
   what a crash at each chosen event k leaves on the media: a crash
   leaves the durable image, not the execution that made it.  Then,
   for each k, a *crash* pass boots a fresh machine, installs that
   image in its pool frames and reboots it
   ([Runtime.crash_and_restart] — DRAM, mappings and microarchitectural
   state gone); no workload operation runs in a crash pass.  The
   workload's post-reboot check compares what the re-opened pool holds
   with the oracle's prediction.

   A workload supplies only what the engine cannot know: its boot, its
   reference run with its per-event oracle step, an optional tear rule
   and its post-reboot check.  There are two families.

   The transactional workloads (counter, kv) run their operations under
   [Txn.instrument], the paper's "compiler inserts the necessary runtime
   logging": structure code calls plain [Runtime.store_*] and every pool
   store (and pmalloc / pfree metadata write) is undo-logged
   transparently.  After the reboot the undo log is recovered and the
   checker validates:

     - the recovery verdict ([Clean] / [Rolled_back n]) is the one the
       oracle predicted;
     - the structure's invariants hold and its contents walk does not
       dangle (every pointer reached through the re-opened pool still
       resolves);
     - the contents equal the snapshot of the op boundary the oracle
       predicted;
     - the persistent freelist is consistent and its allocated-byte
       total matches the same boundary.

   Torn writes: with [torn] set, the transactional workloads' tear rule
   replaces the word interrupted at the crash point by a seeded
   byte-granular mix of its old and new value ([Fi.torn_word]) — unless
   the undo log is making the store itself ([Txn.logging]): the log
   relies on the 8-byte-atomicity guarantee real NVM provides for
   aligned word stores (the same assumption PMDK's undo log makes).
   Every torn data word was undo-logged before being stored, so recovery
   must heal it; the checker verifies that.  Under a relaxed persistency
   model the interesting tear moves to the [Flush_line] µ-events: a
   crash mid-drain leaves one word of the interrupted line as a byte mix
   of its durable and its buffered value.

   Contract oracle.  Under a relaxed persistency model ([--persist
   epoch:N | lazy]) losing an op suffix at a crash is *legitimate* —
   the model's contract is weaker, not broken.  The transactional
   oracle tracks the durable values of the undo log's control words
   (which are write-through under every model) and predicts, for every
   event index, the exact recovery outcome and the exact op boundary
   whose snapshot the recovered state must equal.  The crash passes
   check the observed recovery against the prediction in both
   directions: a state that lost more than predicted AND a state that
   retained more than predicted are both hard failures.  The eager
   model is the degenerate case: the oracle predicts per-operation
   atomicity.

   The multi-core workload (conc) has no transactions: its structures
   promise crash-resilience by construction, and its oracle walks their
   durable values at every event (see [conc_workload]). *)

module Layout = Nvml_simmem.Layout
module Mem = Nvml_simmem.Mem
module Physmem = Nvml_simmem.Physmem
module Fi = Nvml_simmem.Fi
module Ptr = Nvml_core.Ptr
module Xlate = Nvml_core.Xlate
module Pmop = Nvml_pool.Pmop
module Runtime = Nvml_runtime.Runtime
module Persist = Nvml_runtime.Persist
module Site = Nvml_runtime.Site
module Txn = Nvml_runtime.Txn
module Intf = Nvml_structures.Intf
module Registry = Nvml_structures.Registry
module Snapshot = Nvml_structures.Snapshot
module Conc_workload = Nvml_structures.Conc_workload
module Conc_counter = Nvml_structures.Conc_counter
module Conc_list = Nvml_structures.Conc_list
module Workload = Nvml_ycsb.Workload
module Telemetry = Nvml_telemetry.Telemetry

let site = Site.make ~static:true "faultinject"

let c_points = Telemetry.counter "fi.points"
let c_clean = Telemetry.counter "fi.recovered_clean"
let c_rolled_back = Telemetry.counter "fi.recovered_rolled_back"
let c_torn = Telemetry.counter "fi.torn_injected"
let c_violations = Telemetry.counter "fi.violations"
let c_suffix_lost = Telemetry.counter "fi.suffix_lost"

(* --- sweep specification and report ------------------------------------- *)

type spec = {
  every_n : int;  (* crash at events 0, n, 2n, ... (when [at] is empty) *)
  at : int list;  (* explicit event indices instead *)
  torn : bool;
  seed : int;
  max_points : int option;
  break_recovery : bool;
      (* checker self-test: skip Txn.recover and let the checker prove
         it notices the un-rolled-back state *)
}

let default_spec =
  {
    every_n = 1;
    at = [];
    torn = false;
    seed = 1;
    max_points = None;
    break_recovery = false;
  }

type tally = {
  pm_stores : int;
  storeps : int;
  log_appends : int;
  meta_writes : int;
  flushes : int;  (* drain Flush_line µ-events (relaxed models only) *)
  fences : int;  (* drain Fence µ-events (relaxed models only) *)
}

type outcome = {
  point : int;  (* the event index the crash interrupted *)
  op : int;  (* the operation that event belonged to *)
  kind : string;  (* Fi.kind_name of the interrupted event *)
  recovery : Txn.recovery;
  lost_ops : int;  (* committed ops whose effects the model let die *)
  torn_injected : bool;
  violations : string list;
}

type report = {
  workload : string;
  mode : string;  (* Runtime.mode_name of the swept machines *)
  torn_seed : int option;  (* spec.seed, when the sweep tore words *)
  sched_seed : int option;  (* the conc workload's schedule seed *)
  persist : string;  (* Persist.model_name of the swept model *)
  ops : int;
  events : int;
  tally : tally;
  outcomes : outcome list;
  clean : int;
  rolled_back : int;
  suffix_lost : int;  (* points at which >= 1 committed op was lost *)
  torn_injected : int;
  violations : (int * string) list;  (* (point, message) *)
}

(* --- the workload contract ----------------------------------------------- *)

(* ['m] is the workload's state on the reference machine, ['o] the
   oracle its reference pass leaves behind for the crash passes. *)
type ('m, 'o) def = {
  name : string;
  ops : int;
  boot : Runtime.t -> pool:int -> 'm;
      (* build the structures in [pool] and anchor them in its root;
         the engine makes the result durable before the sweep starts *)
  reference : 'm -> (Fi.event -> unit) * (unit -> 'o);
      (* the per-event oracle step (it sees each event before it lands)
         and the run of every operation, which returns the oracle *)
  tear : ('m -> Random.State.t -> Fi.event -> (int * int * int64) option) option;
      (* the tear rule under [spec.torn]: the word a crash at this event
         tears, as (frame, word index, torn value), or [None] when there
         is nothing to tear; [None] for a workload that never tears *)
  sched_seed : int option;  (* the seed of its multi-core schedule *)
  verify : 'o -> Runtime.t -> pool:int -> spec -> outcome -> outcome;
      (* post-reboot check of the rebooted machine: the engine's outcome
         (point, kind, torn) completed with the op, recovery, lost ops
         and violations *)
}

type workload = W : ('m, 'o) def -> workload

(* Anchor two persistent headers in a root block, as an application
   would, so recovery can find them after the pool re-opens at a skewed
   base. *)
let anchor rt ~pool a b =
  let root = Runtime.alloc rt ~pool ~persistent:true 16 in
  Runtime.store_ptr rt ~site root ~off:0 a;
  Runtime.store_ptr rt ~site root ~off:8 b;
  Runtime.set_root rt ~site ~pool root

(* --- the transactional workloads ------------------------------------------ *)

(* A structure on a booted machine: [step i] runs operation [i] (wrapped
   in a transaction), [snapshot] walks the contents, [check] raises on
   broken structural invariants. *)
type instance = {
  header : Ptr.t;
  step : int -> unit;
  snapshot : unit -> Snapshot.t;
  check : unit -> unit;
}

type txn_machine = { rt : Runtime.t; pool : int; txn : Txn.t; inst : instance }

type txn_oracle = {
  preds : (int * Txn.recovery * int) array;
      (* per event: the op it belongs to, the exact recovery verdict for a
         crash there, and the op boundary the recovered state must equal *)
  expected : Snapshot.t array;  (* contents after ops [0, i) *)
  alloc_bytes : int64 array;  (* pool allocated bytes after ops [0, i) *)
  mutated : bool array;  (* op i changed the contents or the allocation *)
}

(* One workload operation: a transaction, then the persistency model's
   op-boundary hook (which drains the epoch every [interval] ops). *)
let run_op m i =
  Txn.begin_ m.txn;
  m.inst.step i;
  Txn.commit m.txn;
  Runtime.persist_op_boundary m.rt

(* The reference pass doubles as the contract oracle.  It mirrors the
   *durable* state of the undo log's control words ([Txn.o_state] and
   [Txn.o_count]) by watching their physical locations through the
   Pm_store events — log stores are write-through under every model,
   so the media value IS the durable value.  From that mirror it
   predicts, for every event index, exactly what a crash there must
   recover to:

     durable state = 1, count = n > 0  ->  Rolled_back n, landing on
         the epoch-start boundary [reset_p] (the last boundary whose
         data fully drained);
     durable state = 1, count = 0      ->  Rolled_back 0 (the crash
         split a truncation), landing on the newest durable boundary;
     durable state = 0                 ->  Clean, newest durable
         boundary.

   The prediction for event k is recorded *before* the mirror absorbs
   event k's store: the fi hook fires before the store lands, so a
   crash at k sees only events [0, k).  Pool frames are stable, so the
   control words' locations stay valid for the whole run. *)
let txn_reference ~ops m =
  let loc off =
    let va =
      Int64.add (Xlate.ra2va (Runtime.xlate m.rt) (Txn.header m.txn))
        (Int64.of_int off)
    in
    let pa = Mem.translate_pa_exn (Runtime.mem m.rt) va in
    (pa lsr Layout.page_shift, (pa land (Layout.page_size - 1)) lsr 3)
  in
  let state_loc = loc Txn.o_state and count_loc = loc Txn.o_count in
  (* Oracle mirror: durable log state/count, the newest fully durable
     op boundary ([completed]) and the boundary a whole-epoch rollback
     lands on ([reset_p]). *)
  let d_state = ref 0 and d_count = ref 0 in
  let completed = ref 0 and reset_p = ref 0 in
  let cur = ref 0 in
  let preds = ref [] in
  let step ev =
    preds :=
      (if !d_state = 1 && !d_count > 0 then
         (!cur, Txn.Rolled_back !d_count, !reset_p)
       else if !d_state = 1 then (!cur, Txn.Rolled_back 0, !completed)
       else (!cur, Txn.Clean, !completed))
      :: !preds;
    match ev with
    | Fi.Pm_store { frame; word_index; new_value; _ } ->
        if (frame, word_index) = state_loc then
          d_state := Int64.to_int new_value
        else if (frame, word_index) = count_loc then begin
          let n = Int64.to_int new_value in
          (if n = 0 then
             if !d_count > 0 then begin
               (* Truncation of a non-empty log: every entry just became
                  redundant, so the boundary the current operation is
                  closing is durable. *)
               completed := !cur + 1;
               reset_p := !cur + 1
             end
             else reset_p := !completed);
          d_count := n
        end
    | _ -> ()
  in
  let record () =
    let allocated () = Pmop.allocated_bytes (Runtime.pmop m.rt) ~pool:m.pool in
    let expected = Array.make (ops + 1) (m.inst.snapshot ()) in
    let alloc_bytes = Array.make (ops + 1) (allocated ()) in
    for i = 0 to ops - 1 do
      cur := i;
      run_op m i;
      expected.(i + 1) <- m.inst.snapshot ();
      alloc_bytes.(i + 1) <- allocated ()
    done;
    {
      preds = Array.of_list (List.rev !preds);
      expected;
      alloc_bytes;
      mutated =
        Array.init ops (fun i ->
            (not (Snapshot.equal expected.(i + 1) expected.(i)))
            || alloc_bytes.(i + 1) <> alloc_bytes.(i));
    }
  in
  (step, record)

(* The tear rule: the interrupted data word becomes a seeded byte mix
   of its old and new value.  A [Pm_store] the undo log makes itself
   ([Txn.logging]) stays whole: the log relies on the 8-byte atomicity
   of aligned NVM word stores.  A tear at a [Flush_line] targets a
   still-buffered word — never a log word, since the log writes
   through ([Persist.with_eager]) — because the flush was interrupted
   mid-line, so the media keeps a byte mix of the word's durable and
   buffered values.  Where each tear lands in the crash image is the
   engine's business ([settle]). *)
let txn_tear m rng =
  let phys = Mem.phys (Runtime.mem m.rt) in
  function
  | Fi.Pm_store { frame; word_index; old_value; new_value }
    when not (Txn.logging m.txn) ->
      let keep_old_bytes = 1 + Random.State.int rng 254 in
      Some (frame, word_index, Fi.torn_word ~keep_old_bytes ~old_value ~new_value)
  | Fi.Flush_line { frame; line } -> (
      match Persist.buffered_in_line (Runtime.persist m.rt) ~frame ~line with
      | [] -> None
      | words ->
          let w, durable =
            List.nth words (Random.State.int rng (List.length words))
          in
          let keep_old_bytes = 1 + Random.State.int rng 254 in
          Some
            ( frame,
              w,
              Fi.torn_word ~keep_old_bytes ~old_value:durable
                ~new_value:(Physmem.peek phys ~frame ~word_index:w) ))
  | _ -> None

let pp_recovery ppf = function
  | Txn.Clean -> Fmt.pf ppf "clean"
  | Txn.Rolled_back n -> Fmt.pf ppf "rolled back %d" n

(* Re-open, recover, and check the outcome against the oracle's
   prediction for that point — exact in both directions. *)
let txn_verify ~reattach o rt ~pool spec (base : outcome) =
  let op, pred, boundary = o.preds.(base.point) in
  let violations = ref [] in
  let add msg = violations := msg :: !violations in
  let recovery =
    match
      ignore (Runtime.open_pool rt "fi");
      let root = Runtime.get_root rt ~site ~pool in
      let txn' = Txn.attach rt (Runtime.load_ptr rt ~site root ~off:0) in
      let recovery =
        if spec.break_recovery then Txn.Clean else Txn.recover txn'
      in
      (recovery, Runtime.load_ptr rt ~site root ~off:8)
    with
    | recovery, hdr ->
        (* Losing more than predicted and retaining more than predicted
           are both hard failures. *)
        if recovery <> pred then
          add
            (Fmt.str "contract: recovery %a, oracle predicted %a" pp_recovery
               recovery pp_recovery pred);
        let want = o.expected.(boundary) in
        (try
           let inst' = reattach rt hdr in
           (try inst'.check ()
            with e -> add ("invariant check: " ^ Printexc.to_string e));
           (try
              let got = inst'.snapshot () in
              if not (Snapshot.equal got want) then
                add
                  (Fmt.str "contract: state differs from predicted boundary %d%a"
                     boundary
                     (Fmt.option (fun ppf d -> Fmt.pf ppf ": %s" d))
                     (Snapshot.diff_summary got want))
            with e -> add ("contents walk dangled: " ^ Printexc.to_string e))
         with e -> add ("reattach failed: " ^ Printexc.to_string e));
        (try
           ignore (Pmop.check_pool_invariants (Runtime.pmop rt) ~pool);
           let got = Pmop.allocated_bytes (Runtime.pmop rt) ~pool in
           let want = o.alloc_bytes.(boundary) in
           if got <> want then
             add
               (Fmt.str
                  "contract: freelist has %Ld bytes allocated, predicted \
                   boundary %d has %Ld"
                  got boundary want)
         with e -> add ("freelist: " ^ Printexc.to_string e));
        recovery
    | exception e ->
        add ("recovery failed: " ^ Printexc.to_string e);
        Txn.Clean
  in
  {
    base with
    op;
    recovery;
    (* Committed ops in [boundary, op) whose effects died with the
       epoch.  Read-only ops in the window are not counted: they left
       nothing behind to lose (which is also why the oracle's
       log-derived boundary can trail [op] under eager without any
       effect actually lost). *)
    lost_ops =
      (let n = ref 0 in
       for i = boundary to op - 1 do
         if o.mutated.(i) then incr n
       done;
       !n);
    violations = List.rev !violations;
  }

(* A transactional workload from its structure's [setup] and
   [reattach].  Under a relaxed model the undo log covers a whole epoch
   instead of a single operation (a lazy run is one epoch!), so the log
   gets a much larger arena. *)
let transactional ~name ~ops ~setup ~reattach =
  W
    {
      name;
      ops;
      boot =
        (fun rt ~pool ->
          let inst = setup rt ~pool in
          let txn =
            if Runtime.persist_relaxed rt then
              Txn.create rt ~pool ~capacity:16384 ()
            else Txn.create rt ~pool ()
          in
          anchor rt ~pool (Txn.header txn) inst.header;
          Txn.instrument txn;
          { rt; pool; txn; inst });
      reference = txn_reference ~ops;
      tear = Some txn_tear;
      sched_seed = None;
      verify = txn_verify ~reattach;
    }

(* A flat array of 8 persistent counters, [ops] transactions of three
   scattered stores each — the smallest workload whose transactions
   have interesting intermediate states. *)
let counter_workload ?(ops = 3) () =
  let cells = 8 in
  let o_cell i = 8 + (i * 8) in
  let instance rt header =
    {
      header;
      step =
        (fun i ->
          let v = Int64.of_int (i + 1) in
          Runtime.store_word rt ~site header ~off:(o_cell (i mod cells)) v;
          Runtime.store_word rt ~site header ~off:(o_cell ((i + 3) mod cells)) v;
          Runtime.store_word rt ~site header
            ~off:(o_cell ((i + 5) mod cells))
            (Int64.neg v));
      snapshot =
        (fun () ->
          List.init cells (fun i ->
              ( Int64.of_int i,
                Runtime.load_word rt ~site header ~off:(o_cell i) )));
      check =
        (fun () ->
          let n = Runtime.load_word rt ~site header ~off:0 in
          if n <> Int64.of_int cells then
            Fmt.failwith "counter header: %Ld cells, expected %d" n cells);
    }
  in
  transactional ~name:"counter" ~ops
    ~setup:(fun rt ~pool ->
      let header = Runtime.alloc rt ~pool ~persistent:true (8 + (cells * 8)) in
      Runtime.store_word rt ~site header ~off:0 (Int64.of_int cells);
      for i = 0 to cells - 1 do
        Runtime.store_word rt ~site header ~off:(o_cell i) 0L
      done;
      instance rt header)
    ~reattach:instance

(* The KV harness shape: populate a Table III structure, then run a
   YCSB stream, with every seventh slot replaced by a remove so
   pfree's freelist updates are exercised under rollback too. *)
let kv_workload ?(structure = "RB") ?(records = 30) ?(ops = 100) ?(seed = 42)
    () =
  let (module M : Intf.ORDERED_MAP) = Registry.find_map structure in
  let spec =
    {
      Workload.paper_default with
      record_count = records;
      operation_count = ops;
      seed;
    }
  in
  let op_arr = Workload.ops spec in
  let instance m =
    let apply = Workload.apply ~find:(M.find m) ~insert:(M.insert m) in
    {
      header = M.header m;
      step =
        (fun i ->
          if i mod 7 = 3 then
            ignore (M.remove m (Workload.key_of_index (i * 3 mod records)))
          else apply op_arr.(i));
      snapshot = (fun () -> Snapshot.capture (fun f -> M.iter m f));
      check = (fun () -> M.check_invariants m);
    }
  in
  transactional ~name:("kv-" ^ M.name) ~ops:(Array.length op_arr)
    ~setup:(fun rt ~pool ->
      let m = M.create rt (Runtime.Pool_region pool) in
      for i = 0 to records - 1 do
        Workload.load_record ~insert:(M.insert m) i
      done;
      instance m)
    ~reattach:(fun rt header -> instance (M.attach rt header))

(* --- the multi-core workload ---------------------------------------------- *)

(* Crash-at-any-event verification for the durably-linearizable
   concurrent structures on the multi-core machine.  No transactions
   here: the structures promise crash-resilience by construction
   (single-word durability points, pre-sized arenas), and the oracle is
   Khyzha & Lahav's crash-resilient-object criterion — after a crash at
   any enumerated persistence event of any core, the recovered state
   must sit between the completed and the invoked operation sets:

     - recovered counter value within [sum completed, sum invoked];
     - per core, the recovered list keys are exactly a prefix of that
       core's insertion order, with length within
       [completed_c, invoked_c].

   The reference pass runs the seeded interleaving once and tracks
   which operations each core has invoked and completed; the oracle
   keeps those marks as they stand at every event, so a crash pass
   checks against the marks of its crash event. *)

(* Per-core invoked/completed counts for both structures. *)
type marks = {
  ctr_invoked : int array;
  ctr_done : int array;
  list_invoked : int array;
  list_done : int array;
}

type conc_machine = { rt : Runtime.t; s : Conc_workload.setup; marks : marks }

let mark_of m ~core = function
  | Conc_workload.Ctr_invoke -> m.ctr_invoked.(core) <- m.ctr_invoked.(core) + 1
  | Conc_workload.Ctr_done -> m.ctr_done.(core) <- m.ctr_done.(core) + 1
  | Conc_workload.List_invoke ->
      m.list_invoked.(core) <- m.list_invoked.(core) + 1
  | Conc_workload.List_done -> m.list_done.(core) <- m.list_done.(core) + 1

(* A reader that resolves byte offsets within a structure's header
   object to the *durable* value of that word — what the media would
   retain on a crash right now.  Valid only while the mapping is live
   (the reference pass). *)
let durable_reader rt header =
  let base = Xlate.ra2va (Runtime.xlate rt) header in
  let p = Runtime.persist rt in
  let mem = Runtime.mem rt in
  fun off ->
    let pa = Mem.translate_pa_exn mem (Int64.add base (Int64.of_int off)) in
    Persist.durable_value p
      ~frame:(pa lsr Layout.page_shift)
      ~word_index:((pa land (Layout.page_size - 1)) lsr 3)

let sum = Array.fold_left ( + ) 0

(* The oracle step fires *before* the event's effect, so the durable
   walk describes the exact state a crash at that event would expose.
   Under a relaxed model it predicts the precise post-crash counter
   value and chain — including mid-drain states where a drained head
   pointer reaches not-yet-drained (still zero) slots.  Each step also
   keeps the marks as they stand: the operations invoked and completed
   when power fails there. *)
let conc_reference ~cores m =
  let ctr_hdr = Conc_counter.header m.s.Conc_workload.counter in
  let list_hdr = Conc_list.header m.s.Conc_workload.list in
  let list_cap = Conc_list.capacity m.s.Conc_workload.list in
  let read_ctr = durable_reader m.rt ctr_hdr in
  let read_list = durable_reader m.rt list_hdr in
  let preds = ref [] in
  let step _ =
    let k = m.marks in
    preds :=
      ( Conc_counter.value_via ~cells:cores read_ctr,
        Conc_list.keys_via ~capacity:list_cap ~header:list_hdr read_list,
        {
          ctr_invoked = Array.copy k.ctr_invoked;
          ctr_done = Array.copy k.ctr_done;
          list_invoked = Array.copy k.list_invoked;
          list_done = Array.copy k.list_done;
        } )
      :: !preds
  in
  ( step,
    fun () ->
      Conc_workload.run
        ~mark:(fun ~core ~op:_ phase -> mark_of m.marks ~core phase)
        m.s;
      Array.of_list (List.rev !preds) )

let conc_verify ~cores ~ops_per_core preds rt ~pool _spec (base : outcome) =
  let pred_counter, pred_keys, snap = preds.(base.point) in
  let violations = ref [] in
  let add msg = violations := msg :: !violations in
  (try
     ignore (Runtime.open_pool rt "fi");
     let root = Runtime.get_root rt ~site ~pool in
     let ctr = Conc_counter.attach rt (Runtime.load_ptr rt ~site root ~off:0) in
     let lst = Conc_list.attach rt (Runtime.load_ptr rt ~site root ~off:8) in
     if Conc_counter.cells ctr <> cores then
       add
         (Fmt.str "counter header: %d cells, expected %d"
            (Conc_counter.cells ctr) cores);
     (* Contract oracle: the recovered state must be byte-exact what
        the durable-value walk at this event predicted — under every
        model.  Retaining more than predicted is as much a failure as
        losing more. *)
     let v = Conc_counter.recovered_value rt ctr in
     if v <> pred_counter then
       add
         (Fmt.str "contract: counter recovered %Ld, oracle predicted %Ld" v
            pred_counter);
     match Conc_list.recovered_keys rt lst with
     | exception e -> add ("list walk: " ^ Printexc.to_string e)
     | keys ->
         if keys <> pred_keys then
           add
             (Fmt.str "contract: list recovered [%a], oracle predicted [%a]"
                Fmt.(list ~sep:semi int64)
                keys
                Fmt.(list ~sep:semi int64)
                pred_keys);
         (* The durable-linearizability bounds additionally hold under
            the eager model (under a relaxed model a drained head may
            legitimately reach not-yet-drained slots, so the chain is
            checked only against the oracle's exact prediction). *)
         if not (Runtime.persist_relaxed rt) then begin
           let v = Int64.to_int v in
           let lo = sum snap.ctr_done and hi = sum snap.ctr_invoked in
           if v < lo || v > hi then
             add
               (Fmt.str
                  "counter: recovered %d, outside [completed %d, invoked %d]"
                  v lo hi);
           let per_core = Array.make cores [] in
           List.iter
             (fun k ->
               let c, j = Conc_workload.decode_key k in
               if c < 0 || c >= cores || j < 0 || j >= ops_per_core then
                 add (Fmt.str "list: foreign key %Lx" k)
               else per_core.(c) <- j :: per_core.(c))
             keys;
           for c = 0 to cores - 1 do
             let js = List.sort compare per_core.(c) in
             let n = List.length js in
             if js <> List.init n Fun.id then
               add
                 (Fmt.str "list: core %d keys are not a prefix of its order" c)
             else if n < snap.list_done.(c) || n > snap.list_invoked.(c) then
               add
                 (Fmt.str
                    "list: core %d recovered %d inserts, outside [completed \
                     %d, invoked %d]"
                    c n snap.list_done.(c) snap.list_invoked.(c))
           done
         end
   with e -> add ("recovery failed: " ^ Printexc.to_string e));
  { base with op = sum snap.list_done; violations = List.rev !violations }

let conc_workload ?(cores = 2) ?(ops_per_core = 8) ?(sched_seed = 1) () =
  if cores < 1 then invalid_arg "Faultinject.conc_workload: cores must be >= 1";
  W
    {
      name = Fmt.str "conc-%dcore" cores;
      ops = cores * ops_per_core;
      boot =
        (fun rt ~pool ->
          let s =
            Conc_workload.setup ~sched_seed ~cores ~ops_per_core rt ~pool
          in
          anchor rt ~pool
            (Conc_counter.header s.Conc_workload.counter)
            (Conc_list.header s.Conc_workload.list);
          let zeros () = Array.make cores 0 in
          {
            rt;
            s;
            marks =
              {
                ctr_invoked = zeros ();
                ctr_done = zeros ();
                list_invoked = zeros ();
                list_done = zeros ();
              };
          });
      reference = conc_reference ~cores;
      tear = None;
      sched_seed = Some sched_seed;
      verify = conc_verify ~cores ~ops_per_core;
    }

(* --- the engine ------------------------------------------------------------ *)

let pool_size = 1 lsl 22

let events_of t =
  t.pm_stores + t.storeps + t.log_appends + t.meta_writes + t.flushes
  + t.fences

(* Run [f] with the fi hook armed: [step] sees every persistence event
   before it lands, then the event is tallied by kind. *)
let observe rt ~step f =
  let phys = Mem.phys (Runtime.mem rt) in
  let pm = ref 0 and sp = ref 0 and la = ref 0 and mw = ref 0 in
  let fl = ref 0 and fe = ref 0 in
  Physmem.set_fi_hook phys
    (Some
       (fun ev ->
         step ev;
         incr
           (match ev with
           | Fi.Pm_store _ -> pm
           | Fi.Storep_retire -> sp
           | Fi.Txn_log_append -> la
           | Fi.Alloc_meta_write _ -> mw
           | Fi.Flush_line _ -> fl
           | Fi.Fence -> fe)));
  let result = f () in
  Physmem.set_fi_hook phys None;
  ( result,
    {
      pm_stores = !pm;
      storeps = !sp;
      log_appends = !la;
      meta_writes = !mw;
      flushes = !fl;
      fences = !fe;
    } )

(* Whether event [i] is one of [spec]'s crash points: decided as the
   event fires, before the event count is known. *)
let selects spec =
  let m = Option.value spec.max_points ~default:max_int in
  match spec.at with
  | [] ->
      let n = max 1 spec.every_n in
      fun i -> i mod n = 0 && i / n < m
  | at ->
      let chosen = Hashtbl.create 64 in
      List.iteri
        (fun k p -> if k < m then Hashtbl.replace chosen p ())
        (List.sort_uniq compare at);
      Hashtbl.mem chosen

(* An out-of-range index must not silently shrink the sweep to zero
   passes — fail loudly with the valid range instead. *)
let check_range ~events spec =
  List.iter
    (fun p ->
      if p < 0 || p >= events then
        Fmt.invalid_arg
          "faultinject: crash point %d is out of range (this workload has \
           events 0..%d)"
          p (events - 1))
    spec.at

(* --- crash images ----------------------------------------------------------- *)

(* What a crash at one point leaves on the media: the pool frames as
   the boot left them, the first [durable] words of the reference
   pass's log over them, then the torn word, if any. *)
type image = {
  at : int;
  kind : string;  (* Fi.kind_name of the interrupted event *)
  durable : int;
  torn : (int * int * int64) option;  (* (frame, word index, value) *)
}

(* Where a tear lands in the crash image.  A torn data store hits the
   media as power fails, so when the persistency engine still buffers
   that word, the reboot's revert to its durable value wins; a torn
   flush word is laid over its reverted line. *)
let settle p ev ((frame, word_index, _) as torn) =
  match ev with
  | Fi.Pm_store _
    when List.mem_assoc word_index
           (Persist.buffered_in_line p ~frame ~line:(word_index lsr 3)) ->
      (frame, word_index, Persist.durable_value p ~frame ~word_index)
  | _ -> torn

(* A fresh machine of the sweep's shape and its (empty) pool.  Every
   machine runs [Config.default] at speed [timing]. *)
let machine ~mode ~persist ~timing () =
  let rt =
    Runtime.create ~cfg:{ Nvml_arch.Config.default with timing } ~mode ~persist ()
  in
  (rt, Runtime.create_pool rt ~name:"fi" ~size:pool_size)

(* A fresh machine with the workload built and fully durable: the
   drain fires before the fi hook installs, so the media holds the
   durable image every crash image starts from. *)
let boot d ~machine =
  let rt, pool = machine () in
  let m = d.boot rt ~pool in
  Runtime.persist_sync rt;
  (rt, pool, m)

(* The tear rule [spec] applies at [point], if any. *)
let tear_rule d (spec : spec) m =
  match d.tear with
  | Some tear when spec.torn ->
      fun point ev -> tear m (Random.State.make [| 0x5eed; spec.seed; point |]) ev
  | _ -> fun _ _ -> None

(* The reference pass.  Its fi hook sees every event before it lands:
   at each crash point it notes the event, how much of the log is
   durable and the tear; after the oracle step it logs what the event
   makes durable — a store that lands outside the persistency buffer,
   or the buffered words of a flushed line.  Returns the oracle, the
   tally, one image per crash point in event order, and [install]. *)
let prepare ~mode ~persist ~spec ~timing d =
  if mode = Runtime.Volatile then
    invalid_arg "Faultinject.run: the Volatile mode has nothing to recover";
  let machine = machine ~mode ~persist ~timing in
  let rt, pool, m = boot d ~machine in
  let phys = Mem.phys (Runtime.mem rt) and p = Runtime.persist rt in
  let base =
    List.filter_map
      (fun f ->
        if Physmem.frame_exists phys f then begin
          let src = Physmem.storage phys f in
          let copy = Bigarray.(Array1.create int64 c_layout (Array1.dim src)) in
          Bigarray.Array1.blit src copy;
          Some (f, copy)
        end
        else None)
      (Pmop.pool_frames (Runtime.pmop rt) ~pool)
  in
  let log = ref [] and durable = ref 0 in
  let append w =
    log := w :: !log;
    incr durable
  in
  let selected = selects spec and tear = tear_rule d spec m in
  let step, record = d.reference m in
  let idx = ref 0 and images = ref [] in
  let capture ev =
    let i = !idx in
    incr idx;
    if selected i then
      images :=
        {
          at = i;
          kind = Fi.kind_name ev;
          durable = !durable;
          torn = Option.map (settle p ev) (tear i ev);
        }
        :: !images;
    step ev;
    match ev with
    | Fi.Pm_store { frame; word_index; new_value; _ } ->
        if not (Persist.buffering p) then append (frame, word_index, new_value)
    | Fi.Flush_line { frame; line } ->
        List.iter
          (fun (word_index, _) ->
            append (frame, word_index, Physmem.peek phys ~frame ~word_index))
          (Persist.buffered_in_line p ~frame ~line)
    | _ -> ()
  in
  let oracle, tally = observe rt ~step:capture record in
  check_range ~events:(events_of tally) spec;
  (* The crash passes, on any domain, only read [base] and [log]. *)
  let log = Array.of_list (List.rev !log) in
  (* A crash pass's machine before its reboot: fresh, with [im]'s image
     in its pool frames.  Creating the pool buffered its freelist
     set-up under a relaxed model; drain it first, or the reboot would
     revert those words over the image. *)
  let install im =
    let rt, pool = machine () in
    Runtime.persist_sync rt;
    let phys = Mem.phys (Runtime.mem rt) in
    List.iter
      (fun (f, words) -> Bigarray.Array1.blit words (Physmem.storage phys f))
      base;
    let poke (frame, word_index, v) = Physmem.poke phys ~frame ~word_index v in
    for i = 0 to im.durable - 1 do
      poke log.(i)
    done;
    Option.iter poke im.torn;
    (rt, pool)
  in
  (oracle, tally, List.rev !images, install)

(* Run the sweep.  [par] maps the per-point thunks (share-nothing,
   order-independent) to their results in submission order — pass
   [Nvml_exec.Pool.run pool] for a parallel sweep; results are
   identical to the sequential default.  Crash-point enumeration and
   recovery verdicts are functional, so every machine boots on the fast
   core by default; [~timing:true] boots the cycle-accurate core (same
   report). *)
let run ?(par = List.map (fun f -> f ())) ?(mode = Runtime.Hw)
    ?(persist = Persist.Eager) ?(spec = default_spec) ?(timing = false)
    (W d) =
  let oracle, tally, images, install = prepare ~mode ~persist ~spec ~timing d in
  (* One crash pass per point, each on a fresh share-nothing machine,
     so passes can run on worker domains in any order. *)
  let crash_pass im () =
    let rt, pool = install im in
    Runtime.crash_and_restart rt;
    d.verify oracle rt ~pool spec
      {
        point = im.at;
        op = 0;
        kind = im.kind;
        recovery = Txn.Clean;
        lost_ops = 0;
        torn_injected = Option.is_some im.torn;
        violations = [];
      }
  in
  let outcomes = par (List.map crash_pass images) in
  let count f = List.length (List.filter f outcomes) in
  let report =
    {
      workload = d.name;
      mode = Runtime.mode_name mode;
      torn_seed =
        (if spec.torn && Option.is_some d.tear then Some spec.seed else None);
      sched_seed = d.sched_seed;
      persist = Persist.model_name persist;
      ops = d.ops;
      events = events_of tally;
      tally;
      outcomes;
      clean = count (fun o -> o.recovery = Txn.Clean);
      rolled_back =
        count (fun o -> match o.recovery with Txn.Rolled_back _ -> true | _ -> false);
      suffix_lost = count (fun o -> o.lost_ops > 0);
      torn_injected = count (fun o -> o.torn_injected);
      violations =
        List.concat_map
          (fun o -> List.map (fun v -> (o.point, v)) o.violations)
          outcomes;
    }
  in
  Telemetry.add c_points (List.length report.outcomes);
  Telemetry.add c_clean report.clean;
  Telemetry.add c_rolled_back report.rolled_back;
  Telemetry.add c_suffix_lost report.suffix_lost;
  Telemetry.add c_torn report.torn_injected;
  Telemetry.add c_violations (List.length report.violations);
  report

let crash_images ?(mode = Runtime.Hw) ?(persist = Persist.Eager)
    ?(spec = default_spec) (W d) =
  let _, _, images, install = prepare ~mode ~persist ~spec ~timing:false d in
  List.map (fun im -> (im.at, Option.is_some im.torn, fst (install im))) images

let drive ?(mode = Runtime.Hw) ?(persist = Persist.Eager) ?(spec = default_spec)
    (W d) hook =
  let rt, _, m = boot d ~machine:(machine ~mode ~persist ~timing:false) in
  let tear = tear_rule d spec m and idx = ref 0 in
  let step, record = d.reference m in
  ignore
    (observe rt
       ~step:(fun ev ->
         let i = !idx in
         incr idx;
         hook rt i ev ~tear:(fun () -> tear i ev);
         step ev)
       record)

(* --- rendering ---------------------------------------------------------- *)

let pp_tally ppf t =
  Fmt.pf ppf "%d pm_store, %d storep, %d log_append, %d alloc_meta"
    t.pm_stores t.storeps t.log_appends t.meta_writes;
  (* Drain µ-events exist only under a relaxed model; eager output is
     pinned byte-identical to the pre-engine renderer. *)
  if t.flushes > 0 || t.fences > 0 then
    Fmt.pf ppf ", %d flush, %d fence" t.flushes t.fences

let pp_report ppf r =
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "workload %s: %d ops, %d events (%a)@," r.workload r.ops r.events
    pp_tally r.tally;
  Fmt.pf ppf "  mode %s" r.mode;
  Option.iter (Fmt.pf ppf ", torn-mask seed %d") r.torn_seed;
  Option.iter (Fmt.pf ppf ", schedule seed %d") r.sched_seed;
  Fmt.pf ppf "@,";
  if r.persist <> "eager" then
    Fmt.pf ppf "  persistency model %s: contract oracle armed@," r.persist;
  Fmt.pf ppf "  %d crash points: %d recovered clean, %d rolled back"
    (List.length r.outcomes) r.clean r.rolled_back;
  if r.suffix_lost > 0 then
    Fmt.pf ppf ", %d lost a committed suffix (as predicted)" r.suffix_lost;
  if r.torn_injected > 0 then Fmt.pf ppf ", %d torn words injected" r.torn_injected;
  Fmt.pf ppf "@,";
  (match r.violations with
  | [] -> Fmt.pf ppf "  no violations"
  | vs ->
      Fmt.pf ppf "  %d VIOLATIONS:" (List.length vs);
      List.iter
        (fun (o : outcome) ->
          if o.violations <> [] then
            Fmt.pf ppf "@,    point %d (op %d, at %s, %a):%a" o.point o.op
              o.kind pp_recovery o.recovery
              (Fmt.list ~sep:Fmt.nop (fun ppf v -> Fmt.pf ppf "@,      %s" v))
              o.violations)
        r.outcomes);
  Fmt.pf ppf "@]"
