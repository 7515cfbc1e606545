(* Tests for the matrix library and the KNN case study. *)

module Runtime = Nvml_runtime.Runtime
module Matrix = Nvml_mlkit.Matrix
module Iris = Nvml_mlkit.Iris
module Knn = Nvml_mlkit.Knn
module Cpu = Nvml_arch.Cpu

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let make mode =
  let rt = Runtime.create ~mode () in
  let pool =
    match mode with
    | Runtime.Volatile -> -1
    | _ -> Runtime.create_pool rt ~name:"ml" ~size:(1 lsl 22)
  in
  (rt, pool)

let test_matrix_basics () =
  let rt, pool = make Runtime.Hw in
  let m = Matrix.create rt (Runtime.Pool_region pool) ~rows:3 ~cols:4 in
  check_int "rows" 3 (Matrix.rows m);
  check_int "cols" 4 (Matrix.cols m);
  Matrix.set m 1 2 3.5;
  check_float "get back" 3.5 (Matrix.get m 1 2);
  check_float "untouched is zero" 0.0 (Matrix.get m 0 0)

let test_matrix_of_arrays_roundtrip () =
  let rt, _ = make Runtime.Volatile in
  let a = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |] in
  let m = Matrix.of_arrays rt Runtime.Dram_region a in
  check_bool "roundtrip" true (Matrix.to_arrays m = a)

let test_matrix_fill () =
  let rt, pool = make Runtime.Sw in
  let m = Matrix.create rt (Runtime.Pool_region pool) ~rows:4 ~cols:4 in
  Matrix.fill m 7.0;
  check_float "filled" 7.0 (Matrix.get m 3 3)

let test_iris_shape () =
  let d = Iris.generate () in
  check_int "150 samples" 150 (Array.length d.Iris.features);
  check_int "4 features" 4 (Array.length d.Iris.features.(0));
  check_int "150 labels" 150 (Array.length d.Iris.labels);
  check_int "3 classes" 3
    (List.length (List.sort_uniq compare (Array.to_list d.Iris.labels)))

let test_iris_deterministic () =
  let a = Iris.generate () and b = Iris.generate () in
  check_bool "same seed, same data" true (a.Iris.features = b.Iris.features)

let test_knn_accuracy () =
  (* Separated synthetic clusters: leave-one-out 3-NN should be easy. *)
  let acc, _ = Knn.case_study ~mode:Runtime.Volatile ~k:3 in
  check_bool (Fmt.str "accuracy %.2f > 0.9" acc) true (acc > 0.9)

let test_knn_same_answer_all_modes () =
  let reference, _ = Knn.case_study ~mode:Runtime.Volatile ~k:3 in
  List.iter
    (fun mode ->
      let acc, _ = Knn.case_study ~mode ~k:3 in
      check_float
        (Fmt.str "accuracy equal in %a" Runtime.pp_mode mode)
        reference acc)
    [ Runtime.Sw; Runtime.Hw; Runtime.Explicit ]

let test_knn_hw_overhead_marginal () =
  let _, vol = Knn.case_study ~mode:Runtime.Volatile ~k:3 in
  let _, hw = Knn.case_study ~mode:Runtime.Hw ~k:3 in
  let ratio = float_of_int hw.Cpu.cycles /. float_of_int vol.Cpu.cycles in
  check_bool (Fmt.str "HW/volatile = %.3f < 1.5" ratio) true (ratio < 1.5)

let test_knn_sw_slowdown_substantial () =
  let _, vol = Knn.case_study ~mode:Runtime.Volatile ~k:3 in
  let _, sw = Knn.case_study ~mode:Runtime.Sw ~k:3 in
  let ratio = float_of_int sw.Cpu.cycles /. float_of_int vol.Cpu.cycles in
  check_bool (Fmt.str "SW/volatile = %.2f > 1.5" ratio) true (ratio > 1.5)

(* The neighbours exclude the sample itself, so k is in 1..n-1; the
   iris case study takes at most 149. *)
let test_knn_k_range () =
  let rt, pool = make Runtime.Hw in
  let placement = List.hd (Knn.all_placements ~pool) in
  let rejects ~n k f =
    Alcotest.check_raises (Fmt.str "n = %d, k = %d" n k)
      (Invalid_argument (Fmt.str "Knn.create: k must be in 1..%d, got %d" (n - 1) k))
      (fun () -> ignore (f ()))
  in
  List.iter
    (fun k -> rejects ~n:60 k (fun () -> Knn.create rt placement ~n:60 ~dims:4 ~k))
    [ 0; 60 ];
  rejects ~n:150 150 (fun () -> Knn.case_study ~mode:Runtime.Hw ~k:150)

let test_all_16_placements_work () =
  let rt, pool = make Runtime.Hw in
  let data = Iris.generate () in
  let placements = Knn.all_placements ~pool in
  check_int "16 combinations" 16 (List.length placements);
  (* Run a reduced problem under every placement; same accuracy. *)
  let small = Array.sub data.Iris.features 0 60 in
  let labels = Array.sub data.Iris.labels 0 60 in
  let accs =
    List.map
      (fun placement ->
        let t = Knn.create rt placement ~n:60 ~dims:4 ~k:3 in
        Knn.load_input t small;
        Knn.run rt t;
        Knn.accuracy t labels)
      placements
  in
  match accs with
  | first :: rest ->
      List.iteri
        (fun i acc ->
          check_float (Fmt.str "placement %d accuracy" i) first acc)
        rest
  | [] -> Alcotest.fail "no placements"

let () =
  Alcotest.run "mlkit"
    [
      ( "matrix",
        [
          Alcotest.test_case "basics" `Quick test_matrix_basics;
          Alcotest.test_case "of_arrays" `Quick test_matrix_of_arrays_roundtrip;
          Alcotest.test_case "fill" `Quick test_matrix_fill;
        ] );
      ( "iris",
        [
          Alcotest.test_case "shape" `Quick test_iris_shape;
          Alcotest.test_case "deterministic" `Quick test_iris_deterministic;
        ] );
      ( "knn",
        [
          Alcotest.test_case "accuracy" `Quick test_knn_accuracy;
          Alcotest.test_case "same answer all modes" `Slow
            test_knn_same_answer_all_modes;
          Alcotest.test_case "HW overhead marginal" `Slow
            test_knn_hw_overhead_marginal;
          Alcotest.test_case "SW slowdown substantial" `Slow
            test_knn_sw_slowdown_substantial;
          Alcotest.test_case "16 placements" `Slow test_all_16_placements_work;
          Alcotest.test_case "k out of range" `Quick test_knn_k_range;
        ] );
    ]
