(* Tests for the serving engine: shard determinism under a parallel
   runner, front-cache write-back correctness against a no-cache
   reference, closed-form cache behaviour on the hot-key-storm mix, the
   batching cost model, and the spans each shard records. *)

module Serving = Nvml_kvstore.Serving
module Workload = Nvml_ycsb.Workload
module Runtime = Nvml_runtime.Runtime
module Oplat = Nvml_runtime.Oplat
module Latency = Nvml_telemetry.Latency
module Telemetry = Nvml_telemetry.Telemetry
module Cpu = Nvml_arch.Cpu
module Pool = Nvml_exec.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let mix name ~records ~ops =
  List.assoc name (Workload.serving_mixes ~records ~ops)

let run ?par ?(structure = "Hash") ?(shards = 8) ?(batch = 32)
    ?(front_cache = 0) spec =
  let cfg = { Runtime.Config.default with timing = false } in
  Serving.run ?par
    (Serving.default_config ~structure ~mode:Runtime.Hw ~cfg ~shards ~batch
       ~front_cache spec)

(* Serialize everything deterministic about a report — the "metrics
   bytes" a --jobs N and --jobs 1 run must agree on. *)
let metrics_bytes (t : Serving.t) =
  let b = Buffer.create 256 in
  let s = Latency.summary (Oplat.latency t.Serving.oplat) in
  Printf.bprintf b "ops=%d found=%d missing=%d size=%d digest=%Lx\n"
    t.Serving.ops t.Serving.found t.Serving.missing t.Serving.size
    t.Serving.digest;
  Printf.bprintf b "cycles=%d/%d load=%d\n" t.Serving.run_cycles_max
    t.Serving.run_cycles_total t.Serving.load_cycles_max;
  Printf.bprintf b "cache=%d/%d/%d/%d/%d\n" t.Serving.cache.Serving.hits
    t.Serving.cache.Serving.misses t.Serving.cache.Serving.writebacks
    t.Serving.cache.Serving.evictions t.Serving.cache.Serving.scan_flushes;
  Printf.bprintf b "lat=%d/%d/%d/%d/%d\n" s.Latency.p50 s.Latency.p90
    s.Latency.p99 s.Latency.p999 s.Latency.max;
  List.iter
    (fun (sh : Serving.shard) ->
      Printf.bprintf b "shard%d=%d/%d/%d/%Lx\n" sh.Serving.index
        sh.Serving.records sh.Serving.ops sh.Serving.run.Cpu.cycles
        sh.Serving.digest)
    t.Serving.per_shard;
  Buffer.contents b

(* --shards 8 --jobs 4 must produce the same metrics bytes as --jobs 1,
   for every mix (shard cells are share-nothing; the merge is in
   shard-index order). *)
let test_jobs_determinism () =
  List.iter
    (fun (name, spec) ->
      let seq = run ~shards:8 ~front_cache:512 spec in
      let pool = Pool.create ~jobs:4 () in
      let par =
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () -> run ~par:(Pool.run pool) ~shards:8 ~front_cache:512 spec)
      in
      check_string
        (name ^ ": jobs 4 == jobs 1 metrics bytes")
        (metrics_bytes seq) (metrics_bytes par))
    (Workload.serving_mixes ~records:4000 ~ops:10_000)

(* A front-cache run must leave the persistent structures with exactly
   the contents of a cache-disabled reference run: every dirty entry is
   written back before detach.  The digest is order-independent, so it
   ignores the allocation reordering write-back introduces. *)
let test_writeback_matches_reference () =
  List.iter
    (fun (name, spec) ->
      let cached = run ~shards:4 ~front_cache:1024 spec in
      let plain = run ~shards:4 ~front_cache:0 spec in
      check_bool (name ^ ": digests equal") true
        (cached.Serving.digest = plain.Serving.digest);
      check_int (name ^ ": sizes equal") plain.Serving.size
        cached.Serving.size;
      check_int (name ^ ": found equal") plain.Serving.found
        cached.Serving.found;
      check_int (name ^ ": missing equal") plain.Serving.missing
        cached.Serving.missing)
    (Workload.serving_mixes ~records:4000 ~ops:10_000)

(* Hot-key-storm: the hot set receives hot_op_fraction of the draws and
   stays resident (the cache holds far more entries than hot keys), so
   the hit rate must reach at least the closed-form expected rate minus
   a compulsory-miss allowance for first touches. *)
let test_hot_storm_hit_rate () =
  let spec = mix "hot-storm" ~records:4000 ~ops:20_000 in
  let t = run ~shards:4 ~front_cache:512 spec in
  let c = t.Serving.cache in
  check_bool "cache saw traffic" true (c.Serving.hits + c.Serving.misses > 0);
  let expected = spec.Workload.hot_op_fraction *. 0.97 in
  let rate = Serving.hit_rate c in
  if rate < expected then
    Alcotest.failf "hit rate %.3f below closed-form floor %.3f" rate expected

(* Batching amortizes the runtime-entry cost: with the same workload,
   batch 32 must finish in strictly fewer service cycles than batch 1,
   and throughput must rise. *)
let test_batching_amortizes () =
  let spec = mix "read-latest" ~records:2000 ~ops:10_000 in
  let b1 = run ~shards:4 ~batch:1 spec in
  let b32 = run ~shards:4 ~batch:32 spec in
  check_bool "batch 32 uses fewer service cycles" true
    (b32.Serving.run_cycles_max < b1.Serving.run_cycles_max);
  check_bool "batch 32 has higher throughput" true
    (Serving.ops_per_sec b32 > Serving.ops_per_sec b1)

(* The shard function must cover all shards and preserve every record:
   per-shard record counts sum to the population and no shard is
   empty at these sizes. *)
let test_shard_balance () =
  let spec = mix "read-latest" ~records:4000 ~ops:4000 in
  let t = run ~shards:8 spec in
  check_int "eight shards" 8 (List.length t.Serving.per_shard);
  let records =
    List.fold_left
      (fun acc (s : Serving.shard) -> acc + s.Serving.records)
      0 t.Serving.per_shard
  in
  check_int "records partitioned exactly" 4000 records;
  List.iter
    (fun (s : Serving.shard) ->
      check_bool "shard non-empty" true (s.Serving.records > 0);
      check_int "shard routing stable" s.Serving.index
        (Serving.shard_of_key ~shards:8
           (Workload.key_of_index
              (* any record this shard loaded *)
              (let r = ref (-1) in
               for i = 0 to 3999 do
                 if !r < 0
                    && Serving.shard_of_key ~shards:8 (Workload.key_of_index i)
                       = s.Serving.index
                 then r := i
               done;
               !r))))
    t.Serving.per_shard

(* Scans observe values written through the cache: the scan path
   flushes dirty entries before reading around the cache, so a
   scan-heavy run with cache on finds exactly what the no-cache run
   finds (already covered by found-equality above) and records scan
   flushes. *)
let test_scan_flushes_dirty () =
  let spec = mix "scan-heavy" ~records:2000 ~ops:10_000 in
  let t = run ~shards:4 ~front_cache:512 spec in
  check_bool "scans triggered dirty flushes" true
    (t.Serving.cache.Serving.scan_flushes > 0);
  check_bool "writebacks happened" true
    (t.Serving.cache.Serving.writebacks > 0)

(* Each shard gets front_cache / shards entries, rounded down, so a
   cache smaller than the shard count is rejected, not enlarged. *)
let test_cache_below_shards () =
  let spec = mix "read-latest" ~records:100 ~ops:100 in
  Alcotest.check_raises "front cache 3 over 8 shards"
    (Invalid_argument "Serving.run: front_cache must be 0 or at least shards")
    (fun () -> ignore (run ~shards:8 ~front_cache:3 spec))

(* Each shard runs the harness's measurement protocol, so a traced run
   records, shard by shard: the load, then the run with the front-cache
   drain nested inside it (only when the shard has a cache), then the
   digest walk.  The load and run spans carry the shard's records and
   requests, which pins the shard order. *)
let test_shard_spans () =
  let spec = mix "read-latest" ~records:200 ~ops:300 in
  let line (e : Telemetry.event) =
    let ph = match e.phase with Begin -> "B" | End -> "E" | Instant -> "I" in
    String.concat " "
      (ph :: e.ename :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) e.args)
  in
  let traced ~front_cache =
    let was = Telemetry.enabled () in
    Telemetry.set_enabled true;
    Fun.protect
      ~finally:(fun () -> Telemetry.set_enabled was)
      (fun () ->
        Telemetry.run_with_sink (Telemetry.fresh_sink ()) (fun () ->
            let t = run ~shards:2 ~batch:4 ~front_cache spec in
            (t, List.map line (Telemetry.events_snapshot ()))))
  in
  let expected (t : Serving.t) ~drain =
    List.concat_map
      (fun (s : Serving.shard) ->
        [ Printf.sprintf "B harness.load records=%d" s.Serving.records;
          "E harness.load";
          Printf.sprintf "B harness.run ops=%d" s.Serving.ops ]
        @ (if drain then [ "B serving.drain"; "E serving.drain" ] else [])
        @ [ "E harness.run"; "B serving.digest"; "E serving.digest" ])
      t.Serving.per_shard
  in
  let cached, events = traced ~front_cache:8 in
  Alcotest.(check (list string))
    "cached: load, run > drain, digest per shard"
    (expected cached ~drain:true) events;
  let plain, events = traced ~front_cache:0 in
  Alcotest.(check (list string))
    "uncached: no drain span" (expected plain ~drain:false) events

let () =
  Alcotest.run "serving"
    [
      ( "determinism",
        [
          Alcotest.test_case "jobs 4 == jobs 1" `Quick test_jobs_determinism;
          Alcotest.test_case "shard balance" `Quick test_shard_balance;
        ] );
      ( "front cache",
        [
          Alcotest.test_case "write-back matches reference" `Quick
            test_writeback_matches_reference;
          Alcotest.test_case "hot-storm hit rate" `Quick
            test_hot_storm_hit_rate;
          Alcotest.test_case "scan flushes dirty" `Quick
            test_scan_flushes_dirty;
          Alcotest.test_case "below shard count rejected" `Quick
            test_cache_below_shards;
        ] );
      ( "batching",
        [
          Alcotest.test_case "amortizes entry cost" `Quick
            test_batching_amortizes;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "shard spans in order" `Quick test_shard_spans ] );
    ]
