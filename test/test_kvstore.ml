(* Tests for the KV-store harness: sanity of results across modes and
   the qualitative relationships the evaluation section reports (SW
   slower than HW, HW close to volatile, Explicit translating far more
   than HW). *)

module Cpu = Nvml_arch.Cpu
module Runtime = Nvml_runtime.Runtime
module Harness = Nvml_kvstore.Harness
module Profile = Nvml_kvstore.Profile
module Site = Nvml_runtime.Site
module Oplat = Nvml_runtime.Oplat
module Registry = Nvml_structures.Registry
module W = Nvml_ycsb.Workload

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A scaled-down spec so the suite stays fast. *)
let small = W.scale W.paper_default 50 (* 200 records, 2000 ops *)

(* A run of [spec] timed each of its ops, and each find of a read, an
   RMW or a scanned record hit a live key.  The finds are counted on the
   index-level mirror of the stream, independently of the harness's op
   semantics. *)
let check_run tag (spec : W.spec) (r : Harness.result) =
  let finds = ref 0 in
  W.iter_idx_ops spec (function
    | W.IRead _ | W.IRmw _ -> incr finds
    | W.IScan (_, len) -> finds := !finds + len
    | W.IUpdate _ | W.IInsert _ -> ());
  check_int (tag ^ ": misses") 0 r.Harness.misses;
  check_int (tag ^ ": hits") !finds r.Harness.hits;
  check_int (tag ^ ": ops timed") spec.W.operation_count
    (Oplat.count r.Harness.oplat)

(* Every mode runs the same stream to the same exact hit count. *)
let test_reads_hit (module M : Nvml_structures.Intf.ORDERED_MAP) () =
  List.iter
    (fun mode ->
      check_run (Fmt.str "%s in %a" M.name Runtime.pp_mode mode) small
        (Harness.run_map (module M) ~mode small))
    Runtime.all_modes

let run_cycles name mode =
  (Harness.run_benchmark name ~mode small).Harness.run.Cpu.cycles

let test_sw_slowest_hw_close () =
  List.iter
    (fun name ->
      let volatile = run_cycles name Runtime.Volatile in
      let hw = run_cycles name Runtime.Hw in
      let sw = run_cycles name Runtime.Sw in
      check_bool (name ^ ": SW slower than HW") true (sw > hw);
      check_bool (name ^ ": HW within 2x of volatile") true
        (float_of_int hw /. float_of_int volatile < 2.0);
      check_bool (name ^ ": SW has real overhead vs volatile") true
        (float_of_int sw /. float_of_int volatile > 1.2))
    [ "RB"; "Hash"; "LL" ]

let test_hw_beats_explicit () =
  List.iter
    (fun name ->
      let hw = run_cycles name Runtime.Hw in
      let explicit = run_cycles name Runtime.Explicit in
      check_bool
        (Fmt.str "%s: HW (%d) faster than Explicit (%d)" name hw explicit)
        true (hw < explicit))
    [ "RB"; "AVL"; "LL" ]

let test_explicit_translates_more () =
  let polb mode =
    let r = Harness.run_map (module Nvml_structures.Registry.Rb) ~mode small in
    r.Harness.run.Cpu.polb_accesses
  in
  check_bool
    (Fmt.str "Explicit POLB traffic (%d) exceeds HW's (%d)"
       (polb Runtime.Explicit) (polb Runtime.Hw))
    true
    (float_of_int (polb Runtime.Explicit) > 1.5 *. float_of_int (polb Runtime.Hw))

let test_sw_checks_dominate () =
  let r = Harness.run_map (module Nvml_structures.Registry.Rb) ~mode:Runtime.Sw small in
  check_bool "dynamic checks in the millions per 100k ops scale" true
    (r.Harness.checks.Harness.dynamic_checks > 10 * small.W.operation_count);
  let rhw = Harness.run_map (module Nvml_structures.Registry.Rb) ~mode:Runtime.Hw small in
  check_int "HW run has zero dynamic checks" 0
    rhw.Harness.checks.Harness.dynamic_checks

let test_sw_mispredicts_worse () =
  let mp mode =
    (Harness.run_map (module Nvml_structures.Registry.Splay) ~mode small)
      .Harness.run.Cpu.branch_mispredicts
  in
  check_bool "SW mispredicts more than volatile" true
    (mp Runtime.Sw > mp Runtime.Volatile)

let test_storep_fraction_small () =
  let r = Harness.run_map (module Nvml_structures.Registry.Rb) ~mode:Runtime.Hw small in
  let s = r.Harness.run in
  let frac = float_of_int s.Cpu.storeps /. float_of_int s.Cpu.mem_accesses in
  check_bool (Fmt.str "storeP fraction small (%.4f)" frac) true (frac < 0.05);
  check_bool "valb accesses rarer than polb" true
    (s.Cpu.valb_accesses < s.Cpu.polb_accesses)

let test_ll_harness () =
  let r = Harness.run_ll ~mode:Runtime.Hw ~nodes:500 () in
  check_bool "LL run did work" true (r.Harness.run.Cpu.loads > 1000);
  check_int "benchmark name" 0 (compare r.Harness.benchmark "LL")

(* The profile reports the profiled structure's sites only, so a site
   minted elsewhere in the process between two runs changes neither its
   rows nor its derived metrics. *)
let test_profile_sites_stable () =
  let a = Profile.run ~benchmark:"RB" small in
  ignore (Site.make "test.profile.unrelated");
  let b = Profile.run ~benchmark:"RB" small in
  check_bool "site rows identical" true (a.Profile.sites = b.Profile.sites);
  check_bool "derived metrics identical" true
    (a.Profile.derived = b.Profile.derived);
  List.iter
    (fun (r : Profile.site_row) ->
      check_bool (r.Profile.site ^ " is an RB site") true
        (String.starts_with ~prefix:"rb." r.Profile.site))
    a.Profile.sites

(* The scan and RMW ops of the serving mixes, on the fast core. *)
let test_scan_rmw_paths () =
  let cfg = { Runtime.Config.default with timing = false } in
  let mixes = W.serving_mixes ~records:500 ~ops:2000 in
  List.iter
    (fun (mix, structure) ->
      let spec = List.assoc mix mixes in
      check_run (mix ^ "/" ^ structure) spec
        (Harness.run_map (Registry.find_map structure) ~mode:Runtime.Hw ~cfg spec))
    [
      ("scan-heavy", "RB"); ("scan-heavy", "Hash"); ("rmw-heavy", "RB");
      ("rmw-heavy", "Hash");
    ]

let test_nvm_accesses_only_in_persistent_modes () =
  let nvm mode =
    (Harness.run_map (module Nvml_structures.Registry.Hash) ~mode small)
      .Harness.run.Cpu.nvm_accesses
  in
  check_int "volatile never touches NVM" 0 (nvm Runtime.Volatile);
  check_bool "HW touches NVM" true (nvm Runtime.Hw > 0)

let () =
  Alcotest.run "kvstore"
    [
      ( "harness",
        [
          Alcotest.test_case "all reads hit" `Quick
            (test_reads_hit (module Registry.Rb));
          Alcotest.test_case "same behaviour across modes" `Quick
            (test_reads_hit (module Registry.Avl));
          Alcotest.test_case "LL harness" `Quick test_ll_harness;
          Alcotest.test_case "profile sites stable" `Quick
            test_profile_sites_stable;
          Alcotest.test_case "NVM access placement" `Quick
            test_nvm_accesses_only_in_persistent_modes;
          Alcotest.test_case "scan and RMW paths" `Quick test_scan_rmw_paths;
        ] );
      ( "paper-shapes",
        [
          Alcotest.test_case "SW slowest, HW close" `Slow
            test_sw_slowest_hw_close;
          Alcotest.test_case "HW beats Explicit" `Slow test_hw_beats_explicit;
          Alcotest.test_case "Explicit translates more" `Quick
            test_explicit_translates_more;
          Alcotest.test_case "SW checks dominate" `Quick
            test_sw_checks_dominate;
          Alcotest.test_case "SW mispredicts worse" `Quick
            test_sw_mispredicts_worse;
          Alcotest.test_case "storeP fraction small" `Quick
            test_storep_fraction_small;
        ] );
    ]
