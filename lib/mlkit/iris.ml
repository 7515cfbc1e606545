(* A synthetic stand-in for the iris dataset the case study uses: 150
   samples, 4 features, 3 classes of 50.  Class means and spreads
   approximate the classic measurements (setosa / versicolor /
   virginica), sampled with a deterministic Box-Muller generator so
   every run sees the same data. *)

type t = { features : float array array; labels : int array }

let classes = 3
let samples_per_class = 50
let features_per_sample = 4
let total_samples = classes * samples_per_class

(* (mean, stddev) per feature, per class: sepal length/width, petal
   length/width. *)
let class_params =
  [|
    [| (5.01, 0.35); (3.43, 0.38); (1.46, 0.17); (0.25, 0.11) |];
    [| (5.94, 0.52); (2.77, 0.31); (4.26, 0.47); (1.33, 0.20) |];
    [| (6.59, 0.64); (2.97, 0.32); (5.55, 0.55); (2.03, 0.27) |];
  |]

let gaussian rng ~mean ~std =
  let u1 = max 1e-12 (Random.State.float rng 1.0) in
  let u2 = Random.State.float rng 1.0 in
  mean +. (std *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let generate () =
  let rng = Random.State.make [| 1936 |] in
  let features =
    Array.init total_samples (fun i ->
        let cls = i / samples_per_class in
        Array.init features_per_sample (fun f ->
            let mean, std = class_params.(cls).(f) in
            gaussian rng ~mean ~std))
  in
  let labels = Array.init total_samples (fun i -> i / samples_per_class) in
  { features; labels }
