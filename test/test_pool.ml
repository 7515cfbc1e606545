(* Tests for the pool manager and the embedded free-list allocators:
   allocation/free correctness, coalescing, persistence of allocator
   state across crashes, the POT/VAT provider, and volatile allocation. *)

module Layout = Nvml_simmem.Layout
module Mem = Nvml_simmem.Mem
module Ptr = Nvml_core.Ptr
module Xlate = Nvml_core.Xlate
module Pmop = Nvml_pool.Pmop
module Valloc = Nvml_pool.Valloc
module Freelist = Nvml_pool.Freelist

let check_i64 = Alcotest.(check int64)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let make () =
  let mem = Mem.create () in
  (mem, Pmop.create mem)

(* --- pool lifecycle ----------------------------------------------------- *)

let test_create_open_detach () =
  let _, pm = make () in
  let id = Pmop.create_pool pm ~name:"p" ~size:65536 in
  check_bool "mapped after create" true (Pmop.pool_base pm id <> None);
  Pmop.detach_pool pm id;
  check_bool "unmapped after detach" true (Pmop.pool_base pm id = None);
  let base = Pmop.open_pool pm "p" in
  check_bool "mapped again" true (Pmop.pool_base pm id = Some base)

let test_duplicate_name_rejected () =
  let _, pm = make () in
  let _ = Pmop.create_pool pm ~name:"p" ~size:65536 in
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Pmop.create_pool: pool \"p\" already exists") (fun () ->
      ignore (Pmop.create_pool pm ~name:"p" ~size:65536))

let test_pool_in_nvm_half () =
  let _, pm = make () in
  let id = Pmop.create_pool pm ~name:"p" ~size:65536 in
  let base = Option.get (Pmop.pool_base pm id) in
  check_bool "pool mapped in NVM half" true (Layout.is_nvm_va base)

let test_vat_lookup () =
  let _, pm = make () in
  let a = Pmop.create_pool pm ~name:"a" ~size:65536 in
  let b = Pmop.create_pool pm ~name:"b" ~size:65536 in
  let base_a = Option.get (Pmop.pool_base pm a) in
  let base_b = Option.get (Pmop.pool_base pm b) in
  (match Pmop.pool_of_va pm (Int64.add base_a 100L) with
  | Some (id, base) ->
      check_int "pool a found" a id;
      check_i64 "base a" base_a base
  | None -> Alcotest.fail "VAT miss for pool a");
  (match Pmop.pool_of_va pm (Int64.add base_b 65535L) with
  | Some (id, _) -> check_int "pool b found" b id
  | None -> Alcotest.fail "VAT miss for pool b");
  check_bool "gap VA not in any pool" true
    (Pmop.pool_of_va pm 0x1000L = None)

let test_vat_after_detach () =
  let _, pm = make () in
  let a = Pmop.create_pool pm ~name:"a" ~size:65536 in
  let base_a = Option.get (Pmop.pool_base pm a) in
  Pmop.detach_pool pm a;
  check_bool "detached pool out of VAT" true
    (Pmop.pool_of_va pm (Int64.add base_a 8L) = None)

(* --- pmalloc / pfree ----------------------------------------------------- *)

let test_pmalloc_relative () =
  let _, pm = make () in
  let pool = Pmop.create_pool pm ~name:"p" ~size:65536 in
  let p = Pmop.pmalloc pm ~pool 64 in
  check_bool "pmalloc returns relative format" true (Ptr.is_relative p);
  check_int "pool id embedded" pool (Ptr.pool_of p)

let test_pmalloc_distinct () =
  let _, pm = make () in
  let pool = Pmop.create_pool pm ~name:"p" ~size:65536 in
  let a = Pmop.pmalloc pm ~pool 64 in
  let b = Pmop.pmalloc pm ~pool 64 in
  check_bool "distinct blocks" true (not (Int64.equal a b));
  let gap = Int64.abs (Int64.sub (Ptr.offset_of b) (Ptr.offset_of a)) in
  check_bool "no overlap" true (gap >= 64L)

let test_pfree_reuse () =
  let _, pm = make () in
  let pool = Pmop.create_pool pm ~name:"p" ~size:65536 in
  let a = Pmop.pmalloc pm ~pool 64 in
  Pmop.pfree pm a;
  let b = Pmop.pmalloc pm ~pool 64 in
  check_i64 "freed block reused first-fit" a b

let test_double_free_detected () =
  let _, pm = make () in
  let pool = Pmop.create_pool pm ~name:"p" ~size:65536 in
  let a = Pmop.pmalloc pm ~pool 64 in
  Pmop.pfree pm a;
  check_bool "double free raises" true
    (try
       Pmop.pfree pm a;
       false
     with Freelist.Corrupt_arena _ -> true)

(* A forged allocated-looking header planted in payload data must not
   fool pfree: the size word reads 0x7FFF...F00|1 — large enough that
   [base + size] overflows any naive bounds arithmetic — but its CRC-16
   tag is wrong, so the header checksum rejects it before any size
   check runs.  (Folded from an old standalone overflow probe.) *)
let test_forged_header_rejected () =
  let mem, pm = make () in
  let pool = Pmop.create_pool pm ~name:"p" ~size:65536 in
  let x = Xlate.make (Pmop.provider pm) in
  let p = Pmop.pmalloc pm ~pool 64 in
  Mem.write_word mem (Xlate.ra2va x p) (Int64.logor 0x7FFFFFFFFFFFFF00L 1L);
  let bogus = Int64.add p Freelist.header_size in
  Alcotest.check_raises "forged header fails its checksum"
    (Freelist.Corrupt_arena
       (Printf.sprintf "block header at %Ld fails its checksum"
          (Ptr.offset_of p)))
    (fun () -> Pmop.pfree pm bogus)

let test_oom () =
  let _, pm = make () in
  let pool = Pmop.create_pool pm ~name:"p" ~size:8192 in
  check_bool "huge allocation fails cleanly" true
    (try
       ignore (Pmop.pmalloc pm ~pool 1_000_000);
       false
     with Freelist.Out_of_memory -> true)

let test_invariants_after_churn () =
  let _, pm = make () in
  let pool = Pmop.create_pool pm ~name:"p" ~size:262144 in
  let live = ref [] in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 500 do
    if Random.State.bool rng || !live = [] then
      live := Pmop.pmalloc pm ~pool (8 + Random.State.int rng 200) :: !live
    else begin
      let n = Random.State.int rng (List.length !live) in
      let p = List.nth !live n in
      live := List.filteri (fun i _ -> i <> n) !live;
      Pmop.pfree pm p
    end
  done;
  ignore (Pmop.check_pool_invariants pm ~pool)

let test_full_free_restores_arena () =
  let _, pm = make () in
  let pool = Pmop.create_pool pm ~name:"p" ~size:65536 in
  let before = Pmop.check_pool_invariants pm ~pool in
  let ps = List.init 20 (fun i -> Pmop.pmalloc pm ~pool (16 + (i * 8))) in
  List.iter (Pmop.pfree pm) ps;
  let after = Pmop.check_pool_invariants pm ~pool in
  check_i64 "all memory coalesced back" before after;
  check_i64 "nothing allocated" 0L (Pmop.allocated_bytes pm ~pool)

(* --- persistence --------------------------------------------------------- *)

let test_heap_state_survives_crash () =
  let mem, pm = make () in
  let pool = Pmop.create_pool pm ~name:"p" ~size:65536 in
  let x = Xlate.make (Pmop.provider pm) in
  let p = Pmop.pmalloc pm ~pool 64 in
  Mem.write_word mem (Xlate.ra2va x p) 4242L;
  Pmop.set_root pm ~pool p;
  let allocated = Pmop.allocated_bytes pm ~pool in
  Pmop.crash pm;
  let _ = Pmop.open_pool pm "p" in
  check_i64 "allocator accounting survives" allocated
    (Pmop.allocated_bytes pm ~pool);
  let root = Pmop.get_root pm ~pool in
  check_i64 "root pointer survives in relative form" p root;
  check_i64 "data reachable via root" 4242L
    (Mem.read_word mem (Xlate.ra2va x root));
  ignore (Pmop.check_pool_invariants pm ~pool)

let test_allocation_continues_after_restart () =
  let _, pm = make () in
  let pool = Pmop.create_pool pm ~name:"p" ~size:65536 in
  let a = Pmop.pmalloc pm ~pool 64 in
  Pmop.crash pm;
  let _ = Pmop.open_pool pm "p" in
  let b = Pmop.pmalloc pm ~pool 64 in
  check_bool "new block does not overlap pre-crash block" true
    (not (Int64.equal (Ptr.offset_of a) (Ptr.offset_of b)))

let test_multiple_restarts_distinct_bases () =
  let _, pm = make () in
  let pool = Pmop.create_pool pm ~name:"p" ~size:65536 in
  let bases = ref [ Option.get (Pmop.pool_base pm pool) ] in
  for _ = 1 to 3 do
    Pmop.crash pm;
    bases := Pmop.open_pool pm "p" :: !bases
  done;
  let sorted = List.sort_uniq Int64.compare !bases in
  check_int "every restart maps at a fresh base" 4 (List.length sorted)

(* --- volatile allocator --------------------------------------------------- *)

let test_valloc_basics () =
  let mem, _ = make () in
  let v = Valloc.create mem ~capacity:65536 in
  let a = Valloc.malloc v 64 in
  check_bool "malloc returns DRAM VA" true
    (Ptr.is_virtual a && not (Layout.is_nvm_va a));
  Mem.write_word mem a 5L;
  check_i64 "usable" 5L (Mem.read_word mem a);
  Valloc.free v a;
  let b = Valloc.malloc v 64 in
  check_i64 "reuse after free" a b;
  ignore (Valloc.check_invariants v)

let test_valloc_lost_on_crash () =
  let mem, pm = make () in
  let v = Valloc.create mem ~capacity:65536 in
  let a = Valloc.malloc v 64 in
  Mem.write_word mem a 5L;
  Pmop.crash pm;
  check_bool "volatile data gone after crash" true
    (try
       ignore (Mem.read_word mem a);
       false
     with Nvml_simmem.Vspace.Fault _ -> true)

let () =
  Alcotest.run "pool"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "create-open-detach" `Quick
            test_create_open_detach;
          Alcotest.test_case "duplicate name" `Quick
            test_duplicate_name_rejected;
          Alcotest.test_case "NVM half" `Quick test_pool_in_nvm_half;
          Alcotest.test_case "VAT lookup" `Quick test_vat_lookup;
          Alcotest.test_case "VAT after detach" `Quick test_vat_after_detach;
        ] );
      ( "allocator",
        [
          Alcotest.test_case "relative format" `Quick test_pmalloc_relative;
          Alcotest.test_case "distinct blocks" `Quick test_pmalloc_distinct;
          Alcotest.test_case "free-reuse" `Quick test_pfree_reuse;
          Alcotest.test_case "double free" `Quick test_double_free_detected;
          Alcotest.test_case "forged header" `Quick
            test_forged_header_rejected;
          Alcotest.test_case "out of memory" `Quick test_oom;
          Alcotest.test_case "churn invariants" `Quick
            test_invariants_after_churn;
          Alcotest.test_case "full free coalesces" `Quick
            test_full_free_restores_arena;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "heap survives crash" `Quick
            test_heap_state_survives_crash;
          Alcotest.test_case "allocate after restart" `Quick
            test_allocation_continues_after_restart;
          Alcotest.test_case "distinct bases" `Quick
            test_multiple_restarts_distinct_bases;
        ] );
      ( "valloc",
        [
          Alcotest.test_case "basics" `Quick test_valloc_basics;
          Alcotest.test_case "lost on crash" `Quick test_valloc_lost_on_crash;
        ] );
    ]
