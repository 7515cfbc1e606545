(* Tests for the execution runtime: mode-specific pointer behaviour,
   conversion/check accounting, allocation placement, crash/restart and
   root anchoring. *)

module Layout = Nvml_simmem.Layout
module Ptr = Nvml_core.Ptr
module Xlate = Nvml_core.Xlate
module Runtime = Nvml_runtime.Runtime
module Site = Nvml_runtime.Site
module Cpu = Nvml_arch.Cpu

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)

let site = Site.make "test.site"
let static_site = Site.make ~static:true "test.static"

let make mode =
  let rt = Runtime.create ~mode () in
  let pool =
    match mode with
    | Runtime.Volatile -> -1
    | _ -> Runtime.create_pool rt ~name:"t" ~size:(1 lsl 20)
  in
  (rt, pool)

(* --- functional equivalence across modes -------------------------------- *)

let test_word_roundtrip_all_modes () =
  List.iter
    (fun mode ->
      let rt, pool = make mode in
      let region =
        match mode with
        | Runtime.Volatile -> Runtime.Dram_region
        | _ -> Runtime.Pool_region pool
      in
      let p = Runtime.alloc_in rt region 64 in
      Runtime.store_word rt ~site p ~off:16 99L;
      check_i64
        (Fmt.str "roundtrip in %a" Runtime.pp_mode mode)
        99L
        (Runtime.load_word rt ~site p ~off:16))
    Runtime.all_modes

let test_ptr_roundtrip_all_modes () =
  List.iter
    (fun mode ->
      let rt, pool = make mode in
      let region =
        match mode with
        | Runtime.Volatile -> Runtime.Dram_region
        | _ -> Runtime.Pool_region pool
      in
      let a = Runtime.alloc_in rt region 64 in
      let b = Runtime.alloc_in rt region 64 in
      Runtime.store_ptr rt ~site a ~off:0 b;
      let b' = Runtime.load_ptr rt ~site a ~off:0 in
      (* The loaded pointer must designate the same object, whatever
         its format in this mode. *)
      check_bool
        (Fmt.str "pointer designates same object in %a" Runtime.pp_mode mode)
        true
        (Runtime.ptr_eq rt ~site b b');
      Runtime.store_word rt ~site b' ~off:8 7L;
      check_i64 "data reachable through reloaded pointer" 7L
        (Runtime.load_word rt ~site b ~off:8))
    Runtime.all_modes

(* --- stored representation ------------------------------------------------ *)

let stored_bits rt p off =
  (* Peek at the raw stored word, bypassing the runtime. *)
  let va = Xlate.ra2va (Runtime.xlate rt) (Ptr.add p (Int64.of_int off)) in
  Nvml_simmem.Mem.read_word (Runtime.mem rt) va

let test_nvm_cells_hold_relative_format () =
  List.iter
    (fun mode ->
      let rt, pool = make mode in
      let region = Runtime.Pool_region pool in
      let a = Runtime.alloc_in rt region 64 in
      let b = Runtime.alloc_in rt region 64 in
      (* Store b (possibly as a VA) into a's field: must be relative. *)
      let b_va = Xlate.ra2va (Runtime.xlate rt) b in
      let value = match mode with Runtime.Hw | Runtime.Sw -> b_va | _ -> b in
      Runtime.store_ptr rt ~site a ~off:0 value;
      let raw = stored_bits rt a 0 in
      match mode with
      | Runtime.Explicit | Runtime.Sw | Runtime.Hw ->
          check_bool
            (Fmt.str "NVM cell holds relative bits in %a" Runtime.pp_mode mode)
            true (Ptr.is_relative raw);
          check_i64 "and exactly the allocation's relative form" b raw
      | Runtime.Volatile -> ())
    [ Runtime.Sw; Runtime.Hw; Runtime.Explicit ]

let test_dram_cells_hold_virtual_format () =
  List.iter
    (fun mode ->
      let rt, pool = make mode in
      let a = Runtime.alloc_in rt Runtime.Dram_region 64 in
      let b = Runtime.alloc_in rt (Runtime.Pool_region pool) 64 in
      Runtime.store_ptr rt ~site a ~off:0 b;
      let raw = stored_bits rt a 0 in
      match mode with
      | Runtime.Sw | Runtime.Hw ->
          check_bool
            (Fmt.str "DRAM cell holds VA bits in %a" Runtime.pp_mode mode)
            true (Ptr.is_virtual raw)
      | Runtime.Explicit ->
          (* The explicit model keeps handles everywhere. *)
          check_bool "explicit keeps the handle" true (Ptr.is_relative raw)
      | Runtime.Volatile -> ())
    [ Runtime.Sw; Runtime.Hw; Runtime.Explicit ]

(* --- allocation placement --------------------------------------------------- *)

let test_volatile_mode_everything_dram () =
  let rt, _ = make Runtime.Volatile in
  let p = Runtime.alloc_in rt (Runtime.Pool_region 1) 64 in
  check_bool "volatile mode ignores pool regions" true
    (Ptr.is_virtual p && not (Layout.is_nvm_va p))

let test_persistent_alloc_is_relative () =
  List.iter
    (fun mode ->
      let rt, pool = make mode in
      let p = Runtime.alloc_in rt (Runtime.Pool_region pool) 64 in
      check_bool
        (Fmt.str "pmalloc relative in %a" Runtime.pp_mode mode)
        true (Ptr.is_relative p))
    [ Runtime.Sw; Runtime.Hw; Runtime.Explicit ]

(* --- accounting --------------------------------------------------------------- *)

let test_sw_counts_dynamic_checks () =
  let rt, pool = make Runtime.Sw in
  let p = Runtime.alloc_in rt (Runtime.Pool_region pool) 64 in
  let c0 = (Runtime.counters rt).Xlate.dynamic_checks in
  ignore (Runtime.load_word rt ~site p ~off:0);
  let c1 = (Runtime.counters rt).Xlate.dynamic_checks in
  check_bool "SW load emits a dynamic check" true (c1 > c0);
  (* Static sites are check-free. *)
  ignore (Runtime.load_word rt ~site:static_site p ~off:0);
  let c2 = (Runtime.counters rt).Xlate.dynamic_checks in
  check_int "static site emits no check" c1 c2

let test_hw_no_dynamic_checks () =
  let rt, pool = make Runtime.Hw in
  let p = Runtime.alloc_in rt (Runtime.Pool_region pool) 64 in
  ignore (Runtime.load_word rt ~site p ~off:0);
  Runtime.store_ptr rt ~site p ~off:8 p;
  check_int "HW emits no software checks" 0
    (Runtime.counters rt).Xlate.dynamic_checks

let test_hw_polb_on_relative_deref () =
  let rt, pool = make Runtime.Hw in
  let p = Runtime.alloc_in rt (Runtime.Pool_region pool) 64 in
  let s0 = Runtime.snapshot rt in
  ignore (Runtime.load_word rt ~site p ~off:0);
  let s1 = Runtime.snapshot rt in
  check_int "relative deref goes through POLB" 1
    (s1.Cpu.polb_accesses - s0.Cpu.polb_accesses)

let test_hw_storep_on_pointer_store () =
  let rt, pool = make Runtime.Hw in
  let p = Runtime.alloc_in rt (Runtime.Pool_region pool) 64 in
  let q = Runtime.alloc_in rt (Runtime.Pool_region pool) 64 in
  let s0 = Runtime.snapshot rt in
  Runtime.store_ptr rt ~site p ~off:0 q;
  let s1 = Runtime.snapshot rt in
  check_int "pointer store is a storeP" 1 (s1.Cpu.storeps - s0.Cpu.storeps);
  (* Plain data store is not. *)
  Runtime.store_word rt ~site p ~off:8 1L;
  let s2 = Runtime.snapshot rt in
  check_int "data store is storeD" 0 (s2.Cpu.storeps - s1.Cpu.storeps)

let test_explicit_translates_every_access () =
  let rt, pool = make Runtime.Explicit in
  let p = Runtime.alloc_in rt (Runtime.Pool_region pool) 64 in
  let s0 = Runtime.snapshot rt in
  for _ = 1 to 10 do
    ignore (Runtime.load_word rt ~site p ~off:0)
  done;
  let s1 = Runtime.snapshot rt in
  check_int "ten accesses, ten translations" 10
    (s1.Cpu.polb_accesses - s0.Cpu.polb_accesses)

let test_hw_translation_reuse_beats_explicit () =
  (* The Fig. 12 effect: loading one pointer then touching many fields
     through it costs one translation under HW, many under Explicit. *)
  let run mode =
    let rt, pool = make mode in
    let a = Runtime.alloc_in rt (Runtime.Pool_region pool) 64 in
    let b = Runtime.alloc_in rt (Runtime.Pool_region pool) 64 in
    Runtime.store_ptr rt ~site a ~off:0 b;
    let s0 = Runtime.snapshot rt in
    let p = Runtime.load_ptr rt ~site a ~off:0 in
    for i = 0 to 5 do
      ignore (Runtime.load_word rt ~site p ~off:(8 * i))
    done;
    let s1 = Runtime.snapshot rt in
    s1.Cpu.polb_accesses - s0.Cpu.polb_accesses
  in
  let hw = run Runtime.Hw and explicit = run Runtime.Explicit in
  check_bool
    (Fmt.str "HW (%d) fewer translations than Explicit (%d)" hw explicit)
    true (hw < explicit)

let test_sw_emits_more_branches () =
  let run mode =
    let rt, pool = make mode in
    let p = Runtime.alloc_in rt (Runtime.Pool_region pool) 64 in
    let s0 = Runtime.snapshot rt in
    for _ = 1 to 20 do
      ignore (Runtime.load_word rt ~site p ~off:0)
    done;
    let s1 = Runtime.snapshot rt in
    s1.Cpu.branches - s0.Cpu.branches
  in
  check_bool "SW executes check branches, HW none" true
    (run Runtime.Sw > run Runtime.Hw)

(* --- crash / restart ------------------------------------------------------------- *)

let test_crash_restart_with_root () =
  List.iter
    (fun mode ->
      let rt, pool = make mode in
      let node = Runtime.alloc_in rt (Runtime.Pool_region pool) 64 in
      Runtime.store_word rt ~site node ~off:8 1234L;
      Runtime.set_root rt ~site ~pool node;
      Runtime.crash_and_restart rt;
      ignore (Runtime.open_pool rt "t");
      let root = Runtime.get_root rt ~site ~pool in
      check_bool
        (Fmt.str "root found after restart in %a" Runtime.pp_mode mode)
        false
        (Runtime.ptr_is_null rt ~site root);
      check_i64 "data intact" 1234L (Runtime.load_word rt ~site root ~off:8))
    [ Runtime.Sw; Runtime.Hw; Runtime.Explicit ]

let test_crash_detached_pool_faults () =
  let rt, pool = make Runtime.Hw in
  let node = Runtime.alloc_in rt (Runtime.Pool_region pool) 64 in
  Runtime.detach_pool rt pool;
  check_bool "detached pool deref faults" true
    (try
       ignore (Runtime.load_word rt ~site node ~off:0);
       false
     with Xlate.Pool_detached _ -> true)

(* --- keep-relative window (Section IV) ----------------------------------------------- *)

(* An HW cycle machine with [n] distinct pool objects and an NVM array
   whose cell [i] holds object [i]'s relative pointer, behind a
   [pad]-byte allocation so the objects sit deep inside the pool. *)
let window_machine ?(cfg = Nvml_arch.Config.default) ?(pad = 0) n =
  let rt = Runtime.create ~cfg ~mode:Runtime.Hw () in
  let pool = Runtime.create_pool rt ~name:"t" ~size:(1 lsl 20) in
  let region = Runtime.Pool_region pool in
  if pad > 0 then ignore (Runtime.alloc_in rt region pad);
  let objs = Array.init n (fun _ -> Runtime.alloc_in rt region 16) in
  let cells = Runtime.alloc_in rt region (8 * n) in
  Array.iteri (fun i o -> Runtime.store_ptr rt ~site cells ~off:(8 * i) o) objs;
  let dst = Runtime.alloc_in rt region 8 in
  (rt, objs, cells, dst)

(* Materialize the pointer in cell [i]: the HW load converts it to a
   virtual address and keeps the relative form live. *)
let load_cell rt cells i = Runtime.load_ptr rt ~site cells ~off:(8 * i)

(* Store [va] into the NVM cell [dst]; returns the (va2ra, VALB access)
   counts the store cost and the word that landed. *)
let store_back rt dst va =
  let c0 = (Runtime.counters rt).Xlate.va2ra in
  let s0 = Runtime.snapshot rt in
  Runtime.store_ptr rt ~site dst ~off:0 va;
  let s1 = Runtime.snapshot rt in
  ( (Runtime.counters rt).Xlate.va2ra - c0,
    s1.Cpu.valb_accesses - s0.Cpu.valb_accesses,
    stored_bits rt dst 0 )

let check_cost what (va2ra, valb) (va2ra', valb', _) =
  check_int (what ^ ": va2ra") va2ra va2ra';
  check_int (what ^ ": VALB accesses") valb valb'

let test_window_remembers_last_32 () =
  let rt, objs, cells, dst = window_machine 33 in
  let vas = Array.init 33 (load_cell rt cells) in
  for i = 1 to 32 do
    let (_, _, word) as cost = store_back rt dst vas.(i) in
    check_cost (Fmt.str "remembered VA %d" i) (0, 0) cost;
    check_i64 (Fmt.str "VA %d stores its relative form" i) objs.(i) word
  done;
  let (_, _, word) as cost = store_back rt dst vas.(0) in
  check_cost "evicted oldest VA" (1, 1) cost;
  check_i64 "oldest VA still stores its relative form" objs.(0) word

let test_window_hit_does_not_refresh () =
  let rt, _, cells, dst = window_machine 33 in
  let vas = Array.init 32 (load_cell rt cells) in
  check_i64 "re-load yields the same VA" vas.(0) (load_cell rt cells 0);
  ignore (load_cell rt cells 32);
  check_cost "re-loaded VA was still the oldest" (1, 1)
    (store_back rt dst vas.(0));
  check_cost "second-oldest VA survives" (0, 0) (store_back rt dst vas.(1))

let test_window_empty_after_crash () =
  (* The object lies past the largest re-open skew (61 pages), so its
     old VA is mapped again after restart, at a different offset: a
     stale window would store the pre-crash relative form. *)
  let rt, objs, cells, dst = window_machine ~pad:(640 * 1024) 1 in
  let va = load_cell rt cells 0 in
  Runtime.crash_and_restart rt;
  ignore (Runtime.open_pool rt "t");
  let expected = Xlate.va2ra (Runtime.xlate rt) va in
  check_bool "old VA now designates another offset" true (expected <> objs.(0));
  let (_, _, word) as cost = store_back rt dst va in
  check_cost "restarted core translates" (1, 1) cost;
  check_i64 "restarted core stores the current relative form" expected word

let test_window_empty_after_fork () =
  let rt, _, cells, dst = window_machine 1 in
  let va = load_cell rt cells 0 in
  check_cost "forked core translates" (1, 1) (store_back (Runtime.fork rt) dst va);
  check_cost "primary still remembers" (0, 0) (store_back rt dst va)

let test_window_off () =
  let cfg =
    { Nvml_arch.Config.default with Nvml_arch.Config.keep_relative_opt = false }
  in
  let rt, _, cells, dst = window_machine ~cfg 2 in
  let vas = Array.init 2 (load_cell rt cells) in
  Array.iter
    (fun va ->
      check_cost "no window: every store-back translates" (1, 1)
        (store_back rt dst va))
    vas

(* --- properties --------------------------------------------------------------------- *)

let prop_mode_equivalence =
  (* The same program (random word stores into two objects linked by a
     pointer) observes identical values in all four modes. *)
  QCheck.Test.make ~name:"programs observe identical values in every mode"
    ~count:50
    QCheck.(list_of_size Gen.(int_range 1 30) (pair (int_bound 7) small_int))
    (fun writes ->
      let run mode =
        let rt, pool = make mode in
        let region =
          match mode with
          | Runtime.Volatile -> Runtime.Dram_region
          | _ -> Runtime.Pool_region pool
        in
        let a = Runtime.alloc_in rt region 64 in
        let b = Runtime.alloc_in rt region 64 in
        Runtime.store_ptr rt ~site a ~off:0 b;
        List.iter
          (fun (slot, v) ->
            let target = Runtime.load_ptr rt ~site a ~off:0 in
            Runtime.store_word rt ~site target ~off:(8 * slot)
              (Int64.of_int v))
          writes;
        let target = Runtime.load_ptr rt ~site a ~off:0 in
        List.map
          (fun i -> Runtime.load_word rt ~site target ~off:(8 * i))
          [ 0; 1; 2; 3; 4; 5; 6; 7 ]
      in
      let reference = run Runtime.Volatile in
      List.for_all
        (fun mode -> run mode = reference)
        [ Runtime.Sw; Runtime.Hw; Runtime.Explicit ])

(* The window against the structures it replaced: a [Hashtbl] from VA
   to relative form plus a [Queue] of VAs in insertion order. *)
type window_op = Remember of int * int64 | Recall of int | Clear

let prop_window_matches_model =
  let module W = Nvml_runtime.Rel_window in
  let op =
    QCheck.Gen.(
      frequency
        [
          (60, map2 (fun v r -> Remember (v, r)) (int_bound 47) ui64);
          (40, map (fun v -> Recall v) (int_bound 47));
          (1, return Clear);
        ])
  in
  let print = function
    | Remember (v, r) -> Printf.sprintf "remember %d %Ld" v r
    | Recall v -> Printf.sprintf "recall %d" v
    | Clear -> "clear"
  in
  QCheck.Test.make ~name:"keep-relative window matches Hashtbl+Queue FIFO"
    ~count:300
    (QCheck.make ~print:QCheck.Print.(list print)
       QCheck.Gen.(list_size (int_range 1 300) op))
    (fun ops ->
      let w = W.create () in
      let tbl = Hashtbl.create 64 and fifo = Queue.create () in
      (* VAs on distinct NVM words, so index collisions are exercised
         by the FIFO and not only by equal keys. *)
      let va v = Int64.add Layout.nvm_va_base (Int64.of_int (v * 24)) in
      let recall v =
        let s = W.find w (va v) in
        if s < 0 then None else Some (W.rel w s)
      in
      List.for_all
        (function
          | Remember (v, r) ->
              if not (Hashtbl.mem tbl v) then begin
                if Queue.length fifo >= W.capacity then
                  Hashtbl.remove tbl (Queue.pop fifo);
                Hashtbl.replace tbl v r;
                Queue.push v fifo
              end;
              W.remember w ~va:(va v) ~rel:r;
              true
          | Recall v -> recall v = Hashtbl.find_opt tbl v
          | Clear ->
              Hashtbl.reset tbl;
              Queue.clear fifo;
              W.clear w;
              true)
        ops
      && List.for_all (fun v -> recall v = Hashtbl.find_opt tbl v)
           (List.init 48 Fun.id))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_mode_equivalence; prop_window_matches_model ]

let () =
  Alcotest.run "runtime"
    [
      ( "equivalence",
        [
          Alcotest.test_case "word roundtrip" `Quick
            test_word_roundtrip_all_modes;
          Alcotest.test_case "pointer roundtrip" `Quick
            test_ptr_roundtrip_all_modes;
        ] );
      ( "representation",
        [
          Alcotest.test_case "NVM cells relative" `Quick
            test_nvm_cells_hold_relative_format;
          Alcotest.test_case "DRAM cells virtual" `Quick
            test_dram_cells_hold_virtual_format;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "volatile is DRAM-only" `Quick
            test_volatile_mode_everything_dram;
          Alcotest.test_case "pmalloc relative" `Quick
            test_persistent_alloc_is_relative;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "SW dynamic checks" `Quick
            test_sw_counts_dynamic_checks;
          Alcotest.test_case "HW no software checks" `Quick
            test_hw_no_dynamic_checks;
          Alcotest.test_case "HW POLB on deref" `Quick
            test_hw_polb_on_relative_deref;
          Alcotest.test_case "HW storeP on pointer store" `Quick
            test_hw_storep_on_pointer_store;
          Alcotest.test_case "Explicit per-access translation" `Quick
            test_explicit_translates_every_access;
          Alcotest.test_case "translation reuse (Fig. 12)" `Quick
            test_hw_translation_reuse_beats_explicit;
          Alcotest.test_case "SW branch volume" `Quick
            test_sw_emits_more_branches;
        ] );
      ( "keep-relative",
        [
          Alcotest.test_case "last 32 VAs store relative" `Quick
            test_window_remembers_last_32;
          Alcotest.test_case "hit does not refresh" `Quick
            test_window_hit_does_not_refresh;
          Alcotest.test_case "empty after crash" `Quick
            test_window_empty_after_crash;
          Alcotest.test_case "empty after fork" `Quick
            test_window_empty_after_fork;
          Alcotest.test_case "off remembers nothing" `Quick test_window_off;
        ] );
      ( "crash",
        [
          Alcotest.test_case "restart with root" `Quick
            test_crash_restart_with_root;
          Alcotest.test_case "detached pool faults" `Quick
            test_crash_detached_pool_faults;
        ] );
      ("properties", qsuite);
    ]
