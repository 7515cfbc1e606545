(* The KNN case study (paper Sec. VII-E): a machine-learning kernel
   whose matrices — one input, one internal, two outputs — can each live
   in DRAM or NVM.  With user-transparent persistent references the same
   kernel binary handles all 16 placement combinations; we persist
   everything except the input, classify the iris dataset, crash-test
   nothing (see crash_recovery.ml for that) and compare configurations.

     dune exec examples/knn_case_study.exe *)

module Cpu = Nvml_arch.Cpu
module Runtime = Nvml_runtime.Runtime
module Knn = Nvml_mlkit.Knn

let () =
  Fmt.pr "KNN (k=3) on the synthetic iris dataset (150 samples, 4 features)@.";
  Fmt.pr "distance + neighbour matrices persisted; input stays volatile@.@.";
  let acc, volatile = Knn.case_study ~mode:Runtime.Volatile ~k:3 in
  Fmt.pr "%-10s %12s %10s %10s@." "version" "cycles" "vs native" "accuracy";
  List.iter
    (fun mode ->
      let a, s =
        if mode = Runtime.Volatile then (acc, volatile)
        else Knn.case_study ~mode ~k:3
      in
      Fmt.pr "%-10s %12d %9.2fx %9.1f%%@." (Runtime.mode_name mode)
        s.Cpu.cycles
        (float_of_int s.Cpu.cycles /. float_of_int volatile.Cpu.cycles)
        (100. *. a))
    Runtime.all_modes;
  Fmt.pr "@.Porting this kernel to NVM changed the four allocation sites@.";
  Fmt.pr "(one per matrix). An explicit-pointer port would rewrite every@.";
  Fmt.pr "matrix access — and need 16 code versions for the 16 placements.@."
