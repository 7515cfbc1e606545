(* Tests for the serving engine: shard determinism under a parallel
   runner, front-cache write-back correctness against a no-cache
   reference, the front cache alone against a reference LRU model,
   closed-form cache behaviour on the hot-key-storm mix, the batching
   cost model, and the spans each shard records. *)

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

let cache_bytes (c : Serving.cache_stats) =
  Printf.sprintf "cache=%d/%d/%d/%d/%d\n" c.Serving.hits c.Serving.misses
    c.Serving.writebacks c.Serving.evictions c.Serving.scan_flushes

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
  Buffer.add_string b (cache_bytes t.Serving.cache);
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
  check_bool "scans made flush calls" true
    (t.Serving.cache.Serving.scan_flushes > 0);
  check_bool "writebacks happened" true
    (t.Serving.cache.Serving.writebacks > 0)

(* Reference model of the front cache: an LRU list of slots (MRU
   first), a dirty flag per slot, slots filled in order and then reused
   from the LRU end, and a flush that walks slots 0 .. size - 1. *)
module Model = struct
  type t = {
    keys : int64 array;
    vals : int64 array;
    dirty : bool array;
    mutable lru : int list;
    mutable size : int;
    mutable stats : Serving.cache_stats;
    mutable victims : bool list; (* the dirty flag of each victim *)
    write_back : key:int64 -> value:int64 -> unit;
  }

  let create cap ~write_back =
    let stats : Serving.cache_stats =
      { hits = 0; misses = 0; writebacks = 0; evictions = 0; scan_flushes = 0 }
    in
    { keys = Array.make cap 0L; vals = Array.make cap 0L;
      dirty = Array.make cap false; lru = []; size = 0; stats; victims = [];
      write_back }

  let slot_of t key = List.find_opt (fun s -> t.keys.(s) = key) t.lru
  let touch t slot = t.lru <- slot :: List.filter (( <> ) slot) t.lru

  let write_back t slot =
    t.write_back ~key:t.keys.(slot) ~value:t.vals.(slot);
    t.dirty.(slot) <- false;
    t.stats <- { t.stats with writebacks = t.stats.writebacks + 1 }

  let install t key v ~dirty =
    match slot_of t key with
    | Some s ->
        t.vals.(s) <- v;
        t.dirty.(s) <- t.dirty.(s) || dirty;
        touch t s
    | None ->
        let s =
          if t.size < Array.length t.keys then (t.size <- t.size + 1; t.size - 1)
          else begin
            let victim = List.nth t.lru (t.size - 1) in
            t.victims <- t.dirty.(victim) :: t.victims;
            if t.dirty.(victim) then write_back t victim;
            t.stats <- { t.stats with evictions = t.stats.evictions + 1 };
            victim
          end
        in
        t.keys.(s) <- key;
        t.vals.(s) <- v;
        t.dirty.(s) <- dirty;
        touch t s

  let get t ~find key =
    match slot_of t key with
    | Some s ->
        t.stats <- { t.stats with hits = t.stats.hits + 1 };
        touch t s;
        Some t.vals.(s)
    | None ->
        t.stats <- { t.stats with misses = t.stats.misses + 1 };
        let r = find key in
        Option.iter (fun v -> install t key v ~dirty:false) r;
        r

  let drain t =
    for s = 0 to t.size - 1 do
      if t.dirty.(s) then write_back t s
    done

  let scan_flush t =
    t.stats <- { t.stats with scan_flushes = t.stats.scan_flushes + 1 };
    drain t
end

(* [Serving.Fcache] against the model on seeded random sequences: every
   kind of get (hit; miss that finds a value; miss that finds none) and
   put (new key; clean and dirty cached key), scan flushes and a closing
   drain, over 4 x capacity + 4 keys so that clean and dirty victims are
   both evicted.  The write-back sequences, get results and stats must
   be equal, and after each scan flush the persistent side must hold the
   latest value of every cached key. *)
let test_fcache_model () =
  let cfg = { Runtime.Config.default with timing = false } in
  (* A persistent side: its contents and the write-backs it received. *)
  let sink () =
    let store = Hashtbl.create 64 and log = ref [] in
    let write_back ~key ~value =
      Hashtbl.replace store key value;
      log := (key, value) :: !log
    in
    (store, log, write_back)
  in
  List.iter
    (fun cap ->
      let dirty_victims = ref 0 and clean_victims = ref 0 in
      for seed = 1 to 20 do
        let ctx = Printf.sprintf "capacity %d seed %d" cap seed in
        let rng = Random.State.make [| cap; seed |] in
        let keys = Array.init ((4 * cap) + 4) (fun i -> Int64.of_int (i + 1)) in
        let store, log, write_back = sink () in
        let mstore, mlog, mwrite_back = sink () in
        (* Every other key starts persistent; the keys above 1_000_000
           are never put, so a miss on one finds nothing. *)
        Array.iteri
          (fun i k ->
            if i mod 2 = 0 then begin
              Hashtbl.replace store k (Int64.of_int i);
              Hashtbl.replace mstore k (Int64.of_int i)
            end)
          keys;
        let absent = ref 1_000_000L and latest = Hashtbl.copy store in
        let rt = Runtime.create ~cfg ~mode:Runtime.Hw () in
        let fc = Serving.Fcache.create rt cap ~write_back in
        let m = Model.create cap ~write_back:mwrite_back in
        let cached p =
          List.filter_map
            (fun s -> if p s then Some m.Model.keys.(s) else None)
            m.Model.lru
        in
        let rec uncached p =
          let k = keys.(Random.State.int rng (Array.length keys)) in
          if Model.slot_of m k = None && p k then k else uncached p
        in
        let any _ = true and clean s = not m.Model.dirty.(s) in
        (* A random key of [l], or an uncached key when [l] is empty. *)
        let pick l =
          if l = [] then uncached any
          else List.nth l (Random.State.int rng (List.length l))
        in
        let gets = ref [] and mgets = ref [] and stale = ref [] in
        let get key =
          gets := Serving.Fcache.get fc ~find:(Hashtbl.find_opt store) key :: !gets;
          mgets := Model.get m ~find:(Hashtbl.find_opt mstore) key :: !mgets
        in
        let put key =
          let value = Random.State.int64 rng 1_000_000L in
          Hashtbl.replace latest key value;
          Serving.Fcache.put fc ~key ~value;
          Model.install m key value ~dirty:true
        in
        (* One scan flush per 6 x capacity ops, so that a dirty entry
           can age out of a full cache between flushes. *)
        for _ = 1 to max 300 (20 * cap) do
          let n = Random.State.int rng ((6 * cap) + 1) in
          if n = 6 * cap then begin
            Serving.Fcache.scan_flush fc;
            Model.scan_flush m;
            List.iter
              (fun k ->
                if Hashtbl.find_opt latest k <> Hashtbl.find_opt store k then
                  stale := k :: !stale)
              (cached any)
          end
          else
            match n mod 6 with
            | 0 -> get (pick (cached any))
            | 1 -> get (uncached (Hashtbl.mem mstore))
            | 2 ->
                absent := Int64.succ !absent;
                get !absent
            | 3 -> put (uncached any)
            | 4 -> put (pick (cached clean))
            | _ -> put (pick (cached (fun s -> not (clean s))))
        done;
        Serving.Fcache.drain fc;
        Model.drain m;
        Alcotest.(check (list (option int64))) (ctx ^ ": gets") !mgets !gets;
        Alcotest.(check (list int64)) (ctx ^ ": stale after a scan flush") [] !stale;
        Alcotest.(check (list (pair int64 int64)))
          (ctx ^ ": write-back sequence") (List.rev !mlog) (List.rev !log);
        check_string (ctx ^ ": stats")
          (cache_bytes m.Model.stats)
          (cache_bytes (Serving.Fcache.stats fc));
        List.iter
          (fun d -> incr (if d then dirty_victims else clean_victims))
          m.Model.victims
      done;
      check_bool (Printf.sprintf "capacity %d: dirty victims" cap) true
        (!dirty_victims > 0);
      check_bool (Printf.sprintf "capacity %d: clean victims" cap) true
        (!clean_victims > 0))
    [ 1; 2; 7; 64 ]

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
          Alcotest.test_case "matches reference model" `Quick
            test_fcache_model;
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
