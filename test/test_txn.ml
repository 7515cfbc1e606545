(* Tests for the persistent undo-log transaction layer on instrumented
   runtimes, where every pool store inside a transaction is logged by
   [Txn.instrument] (the paper's compiler-inserted logging): commit/abort
   semantics, crash recovery mid-transaction, log persistence across
   remapping, and which stores the log makes itself.  Interleavings of
   commits, aborts and crashes are the modelcheck component [txn], run
   here at pinned seeds. *)

module Runtime = Nvml_runtime.Runtime
module Persist = Nvml_runtime.Persist
module Txn = Nvml_runtime.Txn
module Site = Nvml_runtime.Site
module Ptr = Nvml_core.Ptr
module Xlate = Nvml_core.Xlate
module Mem = Nvml_simmem.Mem
module Physmem = Nvml_simmem.Physmem
module Layout = Nvml_simmem.Layout
module Fi = Nvml_simmem.Fi
module Registry = Nvml_structures.Registry
module Config = Nvml_arch.Config
module Harnesses = Nvml_modelcheck.Harnesses

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)

let site = Site.make ~static:true "test.txn"

let make ?persist () =
  let rt = Runtime.create ?persist ~mode:Runtime.Hw () in
  let pool = Runtime.create_pool rt ~name:"t" ~size:(1 lsl 21) in
  (rt, pool)

(* A fresh log in [pool], armed as the runtime's store logger. *)
let instrumented rt ~pool ?capacity () =
  let txn = Txn.create rt ~pool ?capacity () in
  Txn.instrument txn;
  txn

let test_commit_persists () =
  let rt, pool = make () in
  let txn = instrumented rt ~pool () in
  let cell = Runtime.alloc rt ~pool ~persistent:true 16 in
  Runtime.store_word rt ~site cell ~off:0 1L;
  Txn.begin_ txn;
  Runtime.store_word rt ~site cell ~off:0 2L;
  Txn.commit txn;
  check_i64 "committed value" 2L (Runtime.load_word rt ~site cell ~off:0);
  check_bool "idle after commit" false (Txn.is_active txn)

let test_abort_restores () =
  let rt, pool = make () in
  let txn = instrumented rt ~pool () in
  let cell = Runtime.alloc rt ~pool ~persistent:true 32 in
  Runtime.store_word rt ~site cell ~off:0 10L;
  Runtime.store_word rt ~site cell ~off:8 20L;
  Txn.begin_ txn;
  Runtime.store_word rt ~site cell ~off:0 11L;
  Runtime.store_word rt ~site cell ~off:8 21L;
  Runtime.store_word rt ~site cell ~off:0 12L;
  Txn.abort txn;
  check_i64 "first word restored" 10L (Runtime.load_word rt ~site cell ~off:0);
  check_i64 "second word restored" 20L (Runtime.load_word rt ~site cell ~off:8)

let test_crash_mid_txn_rolls_back () =
  let rt, pool = make () in
  let txn = instrumented rt ~pool () in
  let cell = Runtime.alloc rt ~pool ~persistent:true 16 in
  Runtime.store_word rt ~site cell ~off:0 100L;
  Runtime.store_word rt ~site cell ~off:8 200L;
  (* Anchor both the log and the data in the pool root area. *)
  Runtime.set_root rt ~site ~pool (Txn.header txn);
  Txn.begin_ txn;
  Runtime.store_word rt ~site cell ~off:0 999L;
  Runtime.store_word rt ~site cell ~off:8 888L;
  (* CRASH before commit. *)
  Runtime.crash_and_restart rt;
  ignore (Runtime.open_pool rt "t");
  let txn' = Txn.attach rt (Runtime.get_root rt ~site ~pool) in
  (match Txn.recover txn' with
  | Txn.Rolled_back n -> check_int "two entries undone" 2 n
  | Txn.Clean -> Alcotest.fail "expected rollback");
  check_i64 "first word rolled back" 100L (Runtime.load_word rt ~site cell ~off:0);
  check_i64 "second word rolled back" 200L
    (Runtime.load_word rt ~site cell ~off:8);
  check_bool "log idle after recovery" false (Txn.is_active txn')

let test_crash_after_commit_is_clean () =
  let rt, pool = make () in
  let txn = instrumented rt ~pool () in
  let cell = Runtime.alloc rt ~pool ~persistent:true 16 in
  Runtime.set_root rt ~site ~pool (Txn.header txn);
  Txn.begin_ txn;
  Runtime.store_word rt ~site cell ~off:0 7L;
  Txn.commit txn;
  Runtime.crash_and_restart rt;
  ignore (Runtime.open_pool rt "t");
  let txn' = Txn.attach rt (Runtime.get_root rt ~site ~pool) in
  check_bool "clean recovery" true (Txn.recover txn' = Txn.Clean);
  check_i64 "committed value persisted" 7L (Runtime.load_word rt ~site cell ~off:0)

let test_pointer_stores_transactional () =
  let rt, pool = make () in
  let txn = instrumented rt ~pool () in
  let a = Runtime.alloc rt ~pool ~persistent:true 16 in
  let b = Runtime.alloc rt ~pool ~persistent:true 16 in
  let c = Runtime.alloc rt ~pool ~persistent:true 16 in
  Runtime.store_ptr rt ~site a ~off:0 b;
  Txn.begin_ txn;
  Runtime.store_ptr rt ~site a ~off:0 c;
  check_bool "points to c inside txn" true
    (Runtime.ptr_eq rt ~site (Runtime.load_ptr rt ~site a ~off:0) c);
  Txn.abort txn;
  check_bool "points to b again after abort" true
    (Runtime.ptr_eq rt ~site (Runtime.load_ptr rt ~site a ~off:0) b);
  (* The restored cell must hold relative format. *)
  let raw =
    Nvml_simmem.Mem.read_word (Runtime.mem rt)
      (Nvml_core.Xlate.ra2va (Runtime.xlate rt) a)
  in
  check_bool "restored bits are relative" true (Ptr.is_relative raw)

let test_run_wrapper () =
  let rt, pool = make () in
  let txn = instrumented rt ~pool () in
  let cell = Runtime.alloc rt ~pool ~persistent:true 16 in
  Runtime.store_word rt ~site cell ~off:0 1L;
  (* Successful body commits. *)
  Txn.run txn (fun () -> Runtime.store_word rt ~site cell ~off:0 2L);
  check_i64 "committed" 2L (Runtime.load_word rt ~site cell ~off:0);
  (* Raising body rolls back and re-raises. *)
  check_bool "exception propagates" true
    (try
       let (_ : int) =
         Txn.run txn (fun () ->
             Runtime.store_word rt ~site cell ~off:0 3L;
             failwith "boom")
       in
       false
     with Failure _ -> true);
  check_i64 "rolled back" 2L (Runtime.load_word rt ~site cell ~off:0)

let test_protocol_errors () =
  let rt, pool = make () in
  let txn = instrumented rt ~pool () in
  let cell = Runtime.alloc rt ~pool ~persistent:true 16 in
  Runtime.store_word rt ~site cell ~off:0 1L;
  check_int "store outside txn not logged" 0 (Txn.count txn);
  Txn.begin_ txn;
  check_bool "nested begin rejected" true
    (try
       Txn.begin_ txn;
       false
     with Txn.Already_active -> true);
  Txn.commit txn;
  check_bool "double commit rejected" true
    (try
       Txn.commit txn;
       false
     with Txn.Not_active -> true)

let test_volatile_target_not_logged () =
  let rt, pool = make () in
  let txn = instrumented rt ~pool () in
  let dram = Runtime.alloc rt ~persistent:false 16 in
  let cell = Runtime.alloc rt ~pool ~persistent:true 16 in
  Runtime.store_word rt ~site cell ~off:0 5L;
  Txn.begin_ txn;
  Runtime.store_word rt ~site dram ~off:0 1L;
  check_int "DRAM store not logged" 0 (Txn.count txn);
  Runtime.store_word rt ~site cell ~off:0 6L;
  check_int "pool store logged" 1 (Txn.count txn);
  Txn.abort txn;
  check_i64 "pool store rolled back" 5L (Runtime.load_word rt ~site cell ~off:0);
  check_i64 "DRAM store kept" 1L (Runtime.load_word rt ~site dram ~off:0)

let test_log_full () =
  let rt, pool = make () in
  let txn = instrumented rt ~pool ~capacity:4 () in
  let cell = Runtime.alloc rt ~pool ~persistent:true 16 in
  Txn.begin_ txn;
  for _ = 1 to 4 do
    Runtime.store_word rt ~site cell ~off:0 1L
  done;
  check_bool "fifth logged store overflows" true
    (try
       Runtime.store_word rt ~site cell ~off:0 1L;
       false
     with Txn.Log_full -> true)

(* The rule a torn-write injector rests on: the stores to leave whole
   are exactly those made while [Txn.logging] holds.  An RB map takes
   inserts and removes (so pmalloc and pfree write logged metadata) in
   one transaction per op, under eager and epoch:4.  A fault-injection
   hook checks that every NVM store made while the log is logging lands
   inside the log object, that every other one lands outside it, and
   that no drain finds a buffered log word (the log writes through). *)
let test_logging_marks_log_stores () =
  List.iter
    (fun persist ->
      let name = Persist.model_name persist in
      let rt, pool = make ~persist () in
      let (module M) = Registry.find_map "RB" in
      let map = M.create rt (Runtime.Pool_region pool) in
      let capacity = 512 in
      let txn = instrumented rt ~pool ~capacity () in
      Runtime.persist_sync rt;
      (* The log object per txn.ml's layout: a 24-byte header, then
         16-byte entries. *)
      let log_words = Hashtbl.create 1024 in
      let base = Xlate.ra2va (Runtime.xlate rt) (Txn.header txn) in
      for w = 0 to ((24 + (16 * capacity)) / 8) - 1 do
        let pa =
          Mem.translate_pa_exn (Runtime.mem rt)
            (Int64.add base (Int64.of_int (w * 8)))
        in
        Hashtbl.replace log_words
          (pa lsr Layout.page_shift, (pa land (Layout.page_size - 1)) lsr 3)
          ()
      done;
      let in_log frame word_index = Hashtbl.mem log_words (frame, word_index) in
      let log_stores = ref 0 and data_stores = ref 0 and flushes = ref 0 in
      let phys = Mem.phys (Runtime.mem rt) in
      Physmem.set_fi_hook phys
        (Some
           (function
           | Fi.Pm_store { frame; word_index; _ } ->
               let logging = Txn.logging txn in
               incr (if logging then log_stores else data_stores);
               if logging <> in_log frame word_index then
                 Alcotest.failf "%s: store to frame %d word %d, logging %b"
                   name frame word_index logging
           | Fi.Flush_line { frame; line } ->
               incr flushes;
               List.iter
                 (fun (w, _) ->
                   if in_log frame w then
                     Alcotest.failf "%s: log word %d buffered at a flush" name w)
                 (Persist.buffered_in_line (Runtime.persist rt) ~frame ~line)
           | _ -> ()));
      for i = 0 to 39 do
        Txn.begin_ txn;
        let key = Int64.of_int (i mod 16) in
        if i mod 3 = 2 then ignore (M.remove map key)
        else M.insert map ~key ~value:(Int64.of_int i);
        Txn.commit txn;
        Runtime.persist_op_boundary rt
      done;
      Physmem.set_fi_hook phys None;
      check_bool (name ^ ": log stores seen") true (!log_stores > 0);
      check_bool (name ^ ": data stores seen") true (!data_stores > 0);
      check_bool (name ^ ": drains seen") (not (Persist.is_eager persist))
        (!flushes > 0))
    [ Persist.Eager; Persist.Epoch { interval = 4 } ]

let () =
  Alcotest.run "txn"
    [
      ( "basic",
        [
          Alcotest.test_case "commit persists" `Quick test_commit_persists;
          Alcotest.test_case "abort restores" `Quick test_abort_restores;
          Alcotest.test_case "run wrapper" `Quick test_run_wrapper;
          Alcotest.test_case "pointer stores" `Quick
            test_pointer_stores_transactional;
        ] );
      ( "crash",
        [
          Alcotest.test_case "mid-txn rollback" `Quick
            test_crash_mid_txn_rolls_back;
          Alcotest.test_case "post-commit clean" `Quick
            test_crash_after_commit_is_clean;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "errors" `Quick test_protocol_errors;
          Alcotest.test_case "volatile target" `Quick
            test_volatile_target_not_logged;
          Alcotest.test_case "log full" `Quick test_log_full;
          Alcotest.test_case "logging marks log stores" `Quick
            test_logging_marks_log_stores;
        ] );
      ( "properties",
        [
          Pinned.test_case "commit/abort interleavings match reference"
            (Harnesses.Txn_h.harness
               ~cfg:{ Config.default with timing = false } ());
        ] );
    ]
