(* Tests for the KV-store harness: sanity of results across modes and
   the qualitative relationships the evaluation section reports (SW
   slower than HW, HW close to volatile, Explicit translating far more
   than HW). *)

module Cpu = Nvml_arch.Cpu
module Runtime = Nvml_runtime.Runtime
module Harness = Nvml_kvstore.Harness
module Profile = Nvml_kvstore.Profile
module Site = Nvml_runtime.Site
module W = Nvml_ycsb.Workload

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A scaled-down spec so the suite stays fast. *)
let small = W.scale W.paper_default 50 (* 200 records, 2000 ops *)

let test_all_reads_hit () =
  List.iter
    (fun mode ->
      let r = Harness.run_map (module Nvml_structures.Registry.Rb) ~mode small in
      check_int (Fmt.str "no misses in %a" Runtime.pp_mode mode) 0 r.Harness.misses;
      check_bool "some hits" true (r.Harness.hits > 0))
    Runtime.all_modes

let test_same_behaviour_across_modes () =
  let hits mode =
    (Harness.run_map (module Nvml_structures.Registry.Avl) ~mode small)
      .Harness.hits
  in
  let reference = hits Runtime.Volatile in
  List.iter
    (fun mode -> check_int "hit counts equal across modes" reference (hits mode))
    [ Runtime.Sw; Runtime.Hw; Runtime.Explicit ]

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
          Alcotest.test_case "all reads hit" `Quick test_all_reads_hit;
          Alcotest.test_case "same behaviour across modes" `Quick
            test_same_behaviour_across_modes;
          Alcotest.test_case "LL harness" `Quick test_ll_harness;
          Alcotest.test_case "profile sites stable" `Quick
            test_profile_sites_stable;
          Alcotest.test_case "NVM access placement" `Quick
            test_nvm_accesses_only_in_persistent_modes;
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
