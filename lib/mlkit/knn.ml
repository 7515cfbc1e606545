(* The KNN case study (Section VII-E): exact k-nearest-neighbours over
   four matrices — the input samples, an internal distance matrix and
   two output matrices (neighbour indices and neighbour distances).
   Any combination of the four may be placed in DRAM or NVM; the case
   study persists all but the input. *)

module Cpu = Nvml_arch.Cpu
module Runtime = Nvml_runtime.Runtime
module Site = Nvml_runtime.Site

let s_knn = Site.make "knn.kernel"

(* The four matrices of the algorithm and their placements. *)
type placement = {
  input : Runtime.region;
  internal : Runtime.region;
  neighbors : Runtime.region;
  distances : Runtime.region;
}

(* All 16 DRAM/NVM combinations of the four matrices — the reason the
   explicit model would need 16 code versions. *)
let all_placements ~pool =
  let r = function false -> Runtime.Dram_region | true -> Runtime.Pool_region pool in
  List.concat_map
    (fun a ->
      List.concat_map
        (fun b ->
          List.concat_map
            (fun c ->
              List.map
                (fun d ->
                  { input = r a; internal = r b; neighbors = r c; distances = r d })
                [ false; true ])
            [ false; true ])
        [ false; true ])
    [ false; true ]

type t = {
  input : Matrix.t;
  internal : Matrix.t;
  neighbors : Matrix.t;
  distances : Matrix.t;
  k : int;
}

(* Build the working set for [n] samples of [dims] features.  The
   selection takes [k] neighbours other than the sample itself, so [k]
   must be in 1..n-1. *)
let create rt (placement : placement) ~n ~dims ~k =
  if k < 1 || k >= n then
    Fmt.invalid_arg "Knn.create: k must be in 1..%d, got %d" (n - 1) k;
  {
    input = Matrix.create rt placement.input ~rows:n ~cols:dims;
    internal = Matrix.create rt placement.internal ~rows:n ~cols:n;
    neighbors = Matrix.create rt placement.neighbors ~rows:n ~cols:k;
    distances = Matrix.create rt placement.distances ~rows:n ~cols:k;
    k;
  }

let load_input t (features : float array array) =
  let d = Matrix.data t.input in
  Array.iteri
    (fun r row -> Array.iteri (fun c v -> Matrix.set_via t.input ~data:d r c v) row)
    features

(* The kernel: all-pairs distances into the internal matrix, then k
   smallest per row into the output matrices.  Data pointers are
   materialized once per phase, as a compiled kernel would hoist them. *)
let run rt t =
  let n = Matrix.rows t.input in
  let dims = Matrix.cols t.input in
  let din = Matrix.data t.input in
  let dint = Matrix.data t.internal in
  (* Phase 1: pairwise Euclidean distances. *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for f = 0 to dims - 1 do
        let a = Matrix.get_via t.input ~data:din i f in
        let b = Matrix.get_via t.input ~data:din j f in
        (* subsd + mulsd + addsd, ~3-4 cycle latency each *)
        Runtime.instr rt 10;
        let d = a -. b in
        acc := !acc +. (d *. d)
      done;
      (* sqrtsd: ~20-cycle latency on the modeled core *)
      Runtime.instr rt 20;
      Matrix.set_via t.internal ~data:dint i j (sqrt !acc)
    done
  done;
  (* Phase 2: selection of the k nearest (excluding self) per row. *)
  let dnb = Matrix.data t.neighbors in
  let dds = Matrix.data t.distances in
  for i = 0 to n - 1 do
    let taken = Array.make n false in
    taken.(i) <- true;
    for slot = 0 to t.k - 1 do
      let best = ref (-1) in
      let best_d = ref infinity in
      for j = 0 to n - 1 do
        if not taken.(j) then begin
          let d = Matrix.get_via t.internal ~data:dint i j in
          Runtime.instr rt 1;
          if Runtime.branch rt ~site:s_knn (d < !best_d) then begin
            best_d := d;
            best := j
          end
        end
      done;
      taken.(!best) <- true;
      Matrix.set_via t.neighbors ~data:dnb i slot
        (Int64.to_float (Int64.of_int !best));
      Matrix.set_via t.distances ~data:dds i slot !best_d
    done
  done

(* Majority-vote classification accuracy given the true labels —
   leave-one-out over the dataset itself. *)
let accuracy t (labels : int array) =
  let n = Matrix.rows t.neighbors in
  let dnb = Matrix.data t.neighbors in
  let correct = ref 0 in
  for i = 0 to n - 1 do
    let votes = Hashtbl.create 8 in
    for slot = 0 to t.k - 1 do
      let j = int_of_float (Matrix.get_via t.neighbors ~data:dnb i slot) in
      let l = labels.(j) in
      Hashtbl.replace votes l (1 + Option.value ~default:0 (Hashtbl.find_opt votes l))
    done;
    let winner, _ =
      Hashtbl.fold
        (fun l c (bl, bc) -> if c > bc then (l, c) else (bl, bc))
        votes (-1, 0)
    in
    if winner = labels.(i) then incr correct
  done;
  float_of_int !correct /. float_of_int n

(* The case study as the paper runs it: iris with every matrix but the
   input persistent (all in DRAM in the volatile version), classified
   once.  Returns the accuracy and the classification's cost. *)
let case_study ~mode ~k =
  let rt = Runtime.create ~mode () in
  let nvm =
    match mode with
    | Runtime.Volatile -> Runtime.Dram_region
    | _ -> Runtime.Pool_region (Runtime.create_pool rt ~name:"knn" ~size:(1 lsl 21))
  in
  let placement =
    { input = Runtime.Dram_region; internal = nvm; neighbors = nvm; distances = nvm }
  in
  let data = Iris.generate () in
  let t = create rt placement ~n:Iris.total_samples ~dims:Iris.features_per_sample ~k in
  load_input t data.Iris.features;
  let s0 = Runtime.snapshot rt in
  run rt t;
  let s = Cpu.diff_snapshot (Runtime.snapshot rt) s0 in
  (accuracy t data.Iris.labels, s)
