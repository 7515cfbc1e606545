(* Tests for the YCSB-style workload generator: distribution shapes,
   op-mix proportions, determinism, and key generation. *)

module D = Nvml_ycsb.Distribution
module W = Nvml_ycsb.Workload

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let histogram dist rng ~draws ~n =
  let h = Array.make n 0 in
  for _ = 1 to draws do
    let i = D.sample dist rng in
    h.(i) <- h.(i) + 1
  done;
  h

let test_uniform_in_range () =
  let rng = Random.State.make [| 1 |] in
  let d = D.uniform 100 in
  for _ = 1 to 1000 do
    let x = D.sample d rng in
    if x < 0 || x >= 100 then Alcotest.fail "out of range"
  done

let test_uniform_roughly_flat () =
  let rng = Random.State.make [| 2 |] in
  let h = histogram (D.uniform 10) rng ~draws:10000 ~n:10 in
  Array.iter
    (fun c -> check_bool "each bin near 1000" true (c > 700 && c < 1300))
    h

let test_zipfian_skew () =
  let rng = Random.State.make [| 3 |] in
  let h = histogram (D.zipfian 1000) rng ~draws:20000 ~n:1000 in
  (* Rank 0 must dominate; the head must hold most of the mass. *)
  check_bool "rank 0 most popular" true
    (h.(0) = Array.fold_left max 0 h);
  let head = Array.fold_left ( + ) 0 (Array.sub h 0 100) in
  check_bool "top 10% of keys get >60% of draws" true
    (float_of_int head /. 20000. > 0.6)

let test_latest_prefers_recent () =
  let rng = Random.State.make [| 4 |] in
  let d = D.latest 1000 in
  let h = histogram d rng ~draws:20000 ~n:1000 in
  check_bool "most recent record most popular" true
    (h.(999) = Array.fold_left max 0 h);
  let tail = Array.fold_left ( + ) 0 (Array.sub h 900 100) in
  check_bool "recent 10% get most draws" true
    (float_of_int tail /. 20000. > 0.6)

let test_latest_grows () =
  let rng = Random.State.make [| 5 |] in
  let d = D.latest 10 in
  check_int "initial population" 10 (D.population d);
  D.grow d;
  check_int "population grows" 11 (D.population d);
  (* New element is sampleable. *)
  let seen = ref false in
  for _ = 1 to 500 do
    if D.sample d rng = 10 then seen := true
  done;
  check_bool "new most-recent record sampled" true !seen

let test_scrambled_spreads () =
  let rng = Random.State.make [| 6 |] in
  let d = D.scrambled_zipfian 1000 in
  let h = histogram d rng ~draws:20000 ~n:1000 in
  (* The hottest key should not be key 0 — scrambling moved it. *)
  let hottest = ref 0 in
  Array.iteri (fun i c -> if c > h.(!hottest) then hottest := i) h;
  check_bool "hot key scrambled away from rank order" true (!hottest <> 0)

let test_hotspot_concentrates () =
  let rng = Random.State.make [| 7 |] in
  let d = D.hotspot ~hot_frac:0.01 ~op_frac:0.9 1000 in
  check_int "hot set size" 10 (D.hot_set_size d);
  let h = histogram d rng ~draws:20000 ~n:1000 in
  let hot = Array.fold_left ( + ) 0 (Array.sub h 0 10) in
  check_bool "hot 1% of keys take ~90% of draws" true
    (abs (hot - 18000) < 500)

let test_hotspot_grow_stays_cold () =
  let rng = Random.State.make [| 8 |] in
  let d = D.hotspot ~hot_frac:0.1 ~op_frac:0.5 10 in
  D.grow d;
  check_int "population grows" 11 (D.population d);
  check_int "hot set fixed" 1 (D.hot_set_size d);
  for _ = 1 to 500 do
    let x = D.sample d rng in
    if x < 0 || x >= 11 then Alcotest.fail "out of range after grow"
  done

(* The documented parameter domains: hot_frac in (0, 1], op_frac in
   [0, 1].  Outside them the constructor rejects; on the boundaries the
   generator degenerates to a well-defined distribution rather than
   dividing by an empty set. *)
let test_hotspot_boundaries () =
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" name
  in
  rejects "hot_frac = 0" (fun () -> D.hotspot ~hot_frac:0.0 100);
  rejects "hot_frac < 0" (fun () -> D.hotspot ~hot_frac:(-0.5) 100);
  rejects "hot_frac > 1" (fun () -> D.hotspot ~hot_frac:1.5 100);
  rejects "op_frac < 0" (fun () -> D.hotspot ~op_frac:(-0.1) 100);
  rejects "op_frac > 1" (fun () -> D.hotspot ~op_frac:1.1 100);
  let rng = Random.State.make [| 9 |] in
  (* op_frac = 1: every draw lands in the hot set. *)
  let all_hot = D.hotspot ~hot_frac:0.1 ~op_frac:1.0 100 in
  for _ = 1 to 500 do
    let x = D.sample all_hot rng in
    if x >= D.hot_set_size all_hot then
      Alcotest.failf "op_frac=1 drew cold key %d" x
  done;
  (* op_frac = 0: every draw lands in the cold remainder. *)
  let all_cold = D.hotspot ~hot_frac:0.1 ~op_frac:0.0 100 in
  for _ = 1 to 500 do
    let x = D.sample all_cold rng in
    if x < D.hot_set_size all_cold || x >= 100 then
      Alcotest.failf "op_frac=0 drew key %d outside the cold set" x
  done;
  (* hot_frac = 1: the whole population is hot; the cold branch is
     empty and sampling stays uniform over [0, n). *)
  let whole = D.hotspot ~hot_frac:1.0 ~op_frac:0.5 20 in
  check_int "hot set is the population" 20 (D.hot_set_size whole);
  for _ = 1 to 500 do
    let x = D.sample whole rng in
    if x < 0 || x >= 20 then Alcotest.failf "hot_frac=1 drew %d" x
  done

let count_ops spec =
  let reads = ref 0 and updates = ref 0 and inserts = ref 0 in
  W.iter_idx_ops spec (function
    | W.IRead _ -> incr reads
    | W.IUpdate _ -> incr updates
    | W.IInsert _ -> incr inserts
    | W.IScan _ | W.IRmw _ -> ());
  (!reads, !updates, !inserts)

let test_paper_mix () =
  let spec = { W.paper_default with W.operation_count = 20000 } in
  let reads, updates, inserts = count_ops spec in
  check_int "total" 20000 (reads + updates + inserts);
  check_int "no updates in the paper mix" 0 updates;
  check_bool "~95% reads" true (abs (reads - 19000) < 300);
  check_bool "~5% inserts" true (abs (inserts - 1000) < 300)

let test_workload_a_mix () =
  let spec = { W.workload_a with W.operation_count = 20000 } in
  let reads, updates, inserts = count_ops spec in
  check_int "no inserts in A" 0 inserts;
  check_bool "~50/50" true (abs (reads - updates) < 800)

let test_serving_mixes () =
  let mixes = W.serving_mixes ~records:1000 ~ops:20000 in
  check_int "four mixes" 4 (List.length mixes);
  let spec name = List.assoc name mixes in
  (* scan-heavy: about half the ops are scans, all in range. *)
  let scans = ref 0 and total = ref 0 and ok = ref true in
  W.iter_idx_ops (spec "scan-heavy") (fun op ->
      incr total;
      match op with
      | W.IScan (start, len) ->
          incr scans;
          if start < 0 || len < 1 || len > 16 then ok := false
      | _ -> ());
  check_bool "scan bounds" true !ok;
  check_bool "~50% scans" true (abs (!scans - !total / 2) < 800);
  (* rmw-heavy: about half RMW. *)
  let rmws = ref 0 in
  W.iter_idx_ops (spec "rmw-heavy") (function
    | W.IRmw _ -> incr rmws
    | _ -> ());
  check_bool "~50% rmw" true (abs (!rmws - 10000) < 800);
  (* hot-storm: 90% of single-key ops land on the 1-key-in-1000 hot
     set, records [0, hot_n). *)
  let hot_n = max 1 (int_of_float (0.001 *. 1000.)) in
  let hot = ref 0 and singles = ref 0 in
  W.iter_idx_ops (spec "hot-storm") (function
    | W.IRead i | W.IUpdate (i, _) ->
        incr singles;
        if i < hot_n then incr hot
    | _ -> ());
  check_bool "~90% of ops hit the hot set" true
    (abs (!hot * 10 - !singles * 9) < !singles)

let test_deterministic () =
  let collect () = W.ops { W.paper_default with W.operation_count = 500 } in
  check_bool "same seed, same stream" true (collect () = collect ())

let test_inserts_get_fresh_keys () =
  let seen = Hashtbl.create 64 in
  for i = 0 to 999 do
    Hashtbl.replace seen (W.key_of_index i) ()
  done;
  check_int "1000 distinct keys" 1000 (Hashtbl.length seen);
  let fresh = ref true in
  W.iter_idx_ops
    { W.paper_default with W.record_count = 1000; W.operation_count = 2000 }
    (function
      | W.IInsert (i, _) ->
          let k = W.key_of_index i in
          if Hashtbl.mem seen k then fresh := false
          else Hashtbl.replace seen k ()
      | W.IRead _ | W.IUpdate _ | W.IScan _ | W.IRmw _ -> ());
  check_bool "inserts always use unseen keys" true !fresh

let test_reads_hit_existing () =
  (* Every record read must have been loaded or inserted before: the
     live records are [0, n), and an insert appends record n. *)
  let spec = { W.paper_default with W.record_count = 100; W.operation_count = 5000 } in
  let n = ref spec.W.record_count and ok = ref true in
  let live i = if i < 0 || i >= !n then ok := false in
  W.iter_idx_ops spec (function
    | W.IRead i | W.IUpdate (i, _) | W.IRmw (i, _) -> live i
    | W.IInsert (i, _) -> if i = !n then incr n else ok := false
    | W.IScan (start, len) ->
        live start;
        live (start + len - 1));
  check_bool "reads and updates always hit live keys" true !ok

let prop_zipf_bounds =
  QCheck.Test.make ~name:"zipfian samples stay in range" ~count:100
    QCheck.(pair (int_range 1 500) (int_bound 1000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let d = D.zipfian n in
      let ok = ref true in
      for _ = 1 to 100 do
        let x = D.sample d rng in
        if x < 0 || x >= n then ok := false
      done;
      !ok)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_zipf_bounds ]

let () =
  Alcotest.run "ycsb"
    [
      ( "distributions",
        [
          Alcotest.test_case "uniform range" `Quick test_uniform_in_range;
          Alcotest.test_case "uniform flat" `Quick test_uniform_roughly_flat;
          Alcotest.test_case "zipfian skew" `Quick test_zipfian_skew;
          Alcotest.test_case "latest recent" `Quick test_latest_prefers_recent;
          Alcotest.test_case "latest grows" `Quick test_latest_grows;
          Alcotest.test_case "scrambled" `Quick test_scrambled_spreads;
          Alcotest.test_case "hotspot skew" `Quick test_hotspot_concentrates;
          Alcotest.test_case "hotspot grow" `Quick
            test_hotspot_grow_stays_cold;
          Alcotest.test_case "hotspot boundaries" `Quick
            test_hotspot_boundaries;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "paper mix" `Quick test_paper_mix;
          Alcotest.test_case "workload A mix" `Quick test_workload_a_mix;
          Alcotest.test_case "serving mixes" `Quick test_serving_mixes;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "fresh insert keys" `Quick
            test_inserts_get_fresh_keys;
          Alcotest.test_case "reads hit live keys" `Quick
            test_reads_hit_existing;
        ] );
      ("properties", qsuite);
    ]
