(* nvml — command-line driver for the user-transparent persistent
   reference simulator.

     nvml kv --structure RB --mode hw --records 10000 --ops 100000
     nvml kv --structure RB --stats stats.json --trace trace.json
     nvml stats --structure RB -o stats.json
     nvml knn --mode sw
     nvml soundness
     nvml inference
     nvml info *)

open Cmdliner
module Cpu = Nvml_arch.Cpu
module Config = Nvml_arch.Config
module Runtime = Nvml_runtime.Runtime
module Harness = Nvml_kvstore.Harness
module Workload = Nvml_ycsb.Workload
module Iris = Nvml_mlkit.Iris
module Knn = Nvml_mlkit.Knn
module Corpus = Nvml_minic.Corpus
module Interp = Nvml_minic.Interp
module Inference = Nvml_comp.Inference
module Soundness = Nvml_comp.Soundness
module Pool = Nvml_exec.Pool
module Faultinject = Nvml_faultinject.Faultinject
module Modelcheck = Nvml_modelcheck.Modelcheck
module Engine = Nvml_modelcheck.Engine
module Telemetry = Nvml_telemetry.Telemetry
module Json = Nvml_telemetry.Json
module Profile = Nvml_kvstore.Profile
module Serving = Nvml_kvstore.Serving
module Media = Nvml_media.Media
module Mediacheck = Nvml_pool.Mediacheck
module Scrub = Nvml_pool.Scrub
module Oplat = Nvml_runtime.Oplat
module Latency = Nvml_telemetry.Latency
module Cluster = Nvml_runtime.Cluster
module Multicore = Nvml_arch.Multicore
module Registry = Nvml_structures.Registry
module Intf = Nvml_structures.Intf
module Persist = Nvml_runtime.Persist

(* --- shared terms -------------------------------------------------------- *)

(* Bad input exits 124 with a message, like cmdliner's own parse errors. *)
let bad_input fmt =
  Fmt.kstr
    (fun m ->
      Fmt.epr "nvml: %s@." m;
      exit Cmd.Exit.cli_error)
    fmt

(* A number converter that rejects values outside [ok] at parse time, so
   the error names the flag. *)
let checked base ok want =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Fmt.str "expected %s, got %s" want s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let positive = checked Arg.int (fun n -> n >= 1) "an integer >= 1"
let non_negative = checked Arg.int (fun n -> n >= 0) "an integer >= 0"

let probability =
  checked Arg.float (fun p -> p >= 0.0 && p <= 1.0) "a probability in [0,1]"

(* A case-insensitive choice among named values. *)
let choice alts =
  let parse s =
    let lower = String.lowercase_ascii in
    match List.find_opt (fun (n, _) -> lower n = lower s) alts with
    | Some (_, v) -> Ok v
    | None ->
        Error
          (`Msg
             (Fmt.str "expected %s, got %S"
                (String.concat "|" (List.map fst alts))
                s))
  in
  let print ppf v =
    Fmt.string ppf
      (match List.find_opt (fun (_, v') -> v' = v) alts with
      | Some (n, _) -> n
      | None -> "?")
  in
  Arg.conv (parse, print)

let names l = choice (List.map (fun n -> (n, n)) l)

(* [Arg.info] for a flag of a subcommand with a flag table: [rows] (from
   [Flag_table.doc]) ends its doc with the rows that read it. *)
let tinfo ?(rows = fun _ -> "") ?docv names ~doc =
  Arg.info names ?docv ~doc:(doc ^ rows ("--" ^ List.hd names))

(* [~durable]: the modes with a pool (the crash sweeps, the shell). *)
let mode_arg ?rows ?(durable = false) () =
  let modes =
    [
      ("volatile", Runtime.Volatile); ("native", Runtime.Volatile);
      ("sw", Runtime.Sw); ("hw", Runtime.Hw); ("explicit", Runtime.Explicit);
    ]
  in
  let keep (_, m) = not durable || m <> Runtime.Volatile in
  Arg.(
    value
    & opt (choice (List.filter keep modes)) Runtime.Hw
    & tinfo ?rows [ "mode"; "m" ] ~docv:"MODE"
        ~doc:
          (if durable then "Execution mode: sw, hw or explicit."
           else "Execution mode: volatile, sw, hw or explicit."))

let persist_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Persist.model_of_string s) in
  Arg.conv (parse, fun ppf m -> Fmt.string ppf (Persist.model_name m))

let persist_arg rows =
  Arg.(
    value
    & opt persist_conv Persist.Eager
    & tinfo ~rows [ "persist" ] ~docv:"MODEL"
        ~doc:
          "Persistency model: $(b,eager) (every store durable in place, the \
           default — byte-identical to previous releases), $(b,epoch:N) \
           (buffer dirty NVM lines and drain them with modeled flush+fence \
           µ-events every N operations) or $(b,lazy) (drain only at pool \
           detach / end of run).  Relaxed models trade a bounded window of \
           committed-but-lost operations after a crash for cheaper stores.")

let dist_conv =
  choice
    [
      ("uniform", Workload.Uniform); ("zipfian", Workload.Zipfian);
      ("scrambled", Workload.Scrambled_zipfian);
      ("scrambled-zipfian", Workload.Scrambled_zipfian);
      ("latest", Workload.Latest); ("hotspot", Workload.Hotspot);
    ]

let jobs_arg =
  Arg.(
    value
    & opt non_negative 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for multi-cell commands (0 = the recommended \
           domain count). Cells are share-nothing, so results match \
           --jobs 1 exactly.")

(* Run [f] on a domain pool of [jobs] workers (0 = the default count). *)
let with_pool jobs f =
  let pool =
    Pool.create ~jobs:(if jobs >= 1 then jobs else Pool.default_jobs ()) ()
  in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let cores_arg rows =
  Arg.(
    value & opt positive 1
    & tinfo ~rows [ "cores" ] ~docv:"N"
        ~doc:
          "Simulated cores: interleave $(docv) per-core instruction streams \
           over shared L2/L3/POLB/VALB state with a seeded deterministic \
           scheduler. 1 (the default) is the single-core machine, \
           byte-identical to previous releases.")

(* [LL] is a list benchmark, not a key-value map; commands that need a
   map take [maps] only. *)
let maps = Flag_table.maps

let benchmarks = "LL" :: maps

let structure_arg ?rows valid =
  Arg.(
    value
    & opt (names valid) Flag_table.default_structure
    & tinfo ?rows [ "structure"; "s" ] ~docv:"NAME"
        ~doc:(Fmt.str "Index structure: %s." (String.concat ", " valid)))

let records_arg ?rows ?(doc = "Initial records.") default =
  Arg.(value & opt positive default & tinfo ?rows [ "records" ] ~docv:"N" ~doc)

let ops_arg ?rows ?(doc = "Run-phase operations.") default =
  Arg.(value & opt positive default & tinfo ?rows [ "ops" ] ~docv:"N" ~doc)

let seed_arg ?rows ?(default = 1) doc =
  Arg.(value & opt int default & tinfo ?rows [ "seed" ] ~docv:"SEED" ~doc)

let seeds_arg =
  Arg.(
    value & opt positive 1
    & info [ "seeds" ] ~docv:"N"
        ~doc:"Sweep $(docv) consecutive seeds starting at --seed.")

(* The simulated machine: Table IV, on the core --fast selects. *)
let cfg_arg rows =
  let fast =
    Arg.(
      value & flag
      & tinfo ~rows [ "fast" ]
          ~doc:
            "Fast functional mode: skip cache/TLB/branch/storeP timing \
             models (cycles = instructions; latencies then have all \
             non-base components zero).  Functional output is identical to \
             the default cycle-accurate run.")
  in
  Term.(const (fun fast -> { Config.default with timing = not fast }) $ fast)

let stats_arg ?rows () =
  Arg.(
    value
    & opt (some string) None
    & tinfo ?rows [ "stats" ] ~docv:"FILE"
        ~doc:
          "Record telemetry during the run and write the stats JSON document \
           to $(docv).")

(* The row of [table] that a command line runs, from its facts (see
   [Flag_table]); a flag set outside the row is bad input. *)
let row_of table ?structure facts =
  match Flag_table.check table ?structure facts with
  | Ok r -> r
  | Error m -> bad_input "%s" m

(* Write the output file of [--flag] and say so on stderr; an unwritable
   path exits 1. *)
let write_file ~flag ~what path emit =
  match open_out path with
  | oc ->
      emit oc;
      close_out oc;
      Fmt.epr "%s written to %s@." what path
  | exception Sys_error msg ->
      Fmt.epr "--%s: %s@." flag msg;
      exit 1

(* With a [--stats] or [--trace] file, record the run in a fresh telemetry
   sink and write the dumps before returning (they read the sink).
   Telemetry is enabled for the whole run, so parallel workers all see
   one stable enabled flag. *)
let with_telemetry ?trace stats f =
  let dump flag emit =
    Option.iter (fun path -> write_file ~flag ~what:flag path emit)
  in
  if stats = None && trace = None then f ()
  else begin
    Telemetry.set_enabled true;
    Telemetry.run_with_sink (Telemetry.fresh_sink ()) (fun () ->
        let r = f () in
        dump "stats" Telemetry.write_stats_json stats;
        dump "trace" Telemetry.write_chrome_trace trace;
        r)
  end

let print_cluster_stats cluster =
  let s = Cluster.stats cluster in
  Fmt.epr
    "scheduler: %d steps (%d contended), %d switches, %d coherence \
     invalidations@."
    s.Multicore.steps s.Multicore.contended_steps s.Multicore.switches
    s.Multicore.invalidations

(* --- kv ------------------------------------------------------------------ *)

let print_result (r : Harness.result) =
  let s = r.Harness.run in
  Fmt.pr "benchmark    %s (%s)@." r.Harness.benchmark
    (Runtime.mode_name r.Harness.mode);
  Fmt.pr "cycles       %d (load phase: %d)@." s.Cpu.cycles
    r.Harness.load.Cpu.cycles;
  Fmt.pr "instructions %d  IPC %.3f@." s.Cpu.instrs
    (float_of_int s.Cpu.instrs /. float_of_int (max 1 s.Cpu.cycles));
  Fmt.pr "accesses     %d loads, %d stores (%d storeP, %d NVM)@." s.Cpu.loads
    s.Cpu.stores s.Cpu.storeps s.Cpu.nvm_accesses;
  Fmt.pr "branches     %d (%d mispredicted)@." s.Cpu.branches
    s.Cpu.branch_mispredicts;
  Fmt.pr "translation  POLB %d (miss %d), VALB %d (miss %d)@."
    s.Cpu.polb_accesses s.Cpu.polb_misses s.Cpu.valb_accesses
    s.Cpu.valb_misses;
  Fmt.pr "checks       %d dynamic, %d abs->rel, %d rel->abs@."
    r.Harness.checks.Harness.dynamic_checks r.Harness.checks.Harness.abs_to_rel
    r.Harness.checks.Harness.rel_to_abs;
  Fmt.pr "GETs         %d hits, %d misses@." r.Harness.hits r.Harness.misses

(* The [--latency] report: percentile ladder, whole-run component
   attribution, and the retained slowest operations with their
   component breakdowns. *)
let print_latency (ol : Oplat.t) =
  if Oplat.count ol = 0 then
    Fmt.pr "@.per-op latency: no operations recorded@."
  else begin
    let s = Latency.summary (Oplat.latency ol) in
    Fmt.pr "@.per-op latency (cycles, %d ops)@." s.Latency.count;
    Fmt.pr "  p50 %d  p90 %d  p99 %d  p999 %d  max %d  mean %.1f@."
      s.Latency.p50 s.Latency.p90 s.Latency.p99 s.Latency.p999 s.Latency.max
      s.Latency.mean;
    let tot = Oplat.totals ol in
    let all = float_of_int (max 1 (Oplat.components_total tot)) in
    let pct n = 100. *. float_of_int n /. all in
    Fmt.pr
      "  attribution  base %.1f%%  check %.1f%%  translation %.1f%%  stall \
       %.1f%%  media %.1f%%@."
      (pct tot.Oplat.base) (pct tot.Oplat.check) (pct tot.Oplat.translation)
      (pct tot.Oplat.stall) (pct tot.Oplat.media);
    Fmt.pr "  slowest ops:@.";
    List.iter
      (fun (sm : Oplat.sample) ->
        Fmt.pr
          "    %-6s #%-7d %9d cycles  base %d  check %d  translation %d  \
           stall %d  media %d@."
          sm.Oplat.op sm.Oplat.seq sm.Oplat.cycles sm.Oplat.comps.Oplat.base
          sm.Oplat.comps.Oplat.check sm.Oplat.comps.Oplat.translation
          sm.Oplat.comps.Oplat.stall sm.Oplat.comps.Oplat.media)
      (Oplat.slowest ol)
  end

(* The serving-engine report: configuration, simulated throughput,
   front-cache behaviour, and a per-shard balance table. *)
let print_serving (t : Serving.t) =
  Fmt.pr "serving      %s (%s), %d shards, batch %d, front cache %d@."
    t.Serving.structure
    (Runtime.mode_name t.Serving.mode)
    t.Serving.shards t.Serving.batch t.Serving.front_cache;
  Fmt.pr "workload     %a@." Workload.pp_spec t.Serving.spec;
  Fmt.pr "requests     %d (%d found, %d missing), final size %d@."
    t.Serving.ops t.Serving.found t.Serving.missing t.Serving.size;
  Fmt.pr "cycles       %d service (max shard), %d total, load max %d@."
    t.Serving.run_cycles_max t.Serving.run_cycles_total
    t.Serving.load_cycles_max;
  Fmt.pr "throughput   %.3f Mops/s simulated (%.2f GHz clock)@."
    (Serving.ops_per_sec t /. 1e6)
    (Serving.clock_hz /. 1e9);
  if t.Serving.front_cache > 0 then begin
    let c = t.Serving.cache in
    Fmt.pr
      "front cache  %.1f%% hit rate (%d hits / %d misses), %d write-backs, \
       %d evictions, %d scan flushes@."
      (100. *. Serving.hit_rate c)
      c.Serving.hits c.Serving.misses c.Serving.writebacks c.Serving.evictions
      c.Serving.scan_flushes
  end;
  Fmt.pr "digest       %016Lx@." t.Serving.digest;
  if t.Serving.shards > 1 then begin
    Fmt.pr "%-8s %10s %10s %14s %10s@." "shard" "records" "requests" "cycles"
      "hit rate";
    List.iter
      (fun (s : Serving.shard) ->
        Fmt.pr "%-8d %10d %10d %14d %9.1f%%@." s.Serving.index
          s.Serving.records s.Serving.ops s.Serving.run.Cpu.cycles
          (100. *. Serving.hit_rate s.Serving.cache))
      t.Serving.per_shard
  end

let dist_arg rows =
  Arg.(
    value
    & opt dist_conv Workload.Latest
    & tinfo ~rows [ "distribution"; "d" ] ~doc:"Key distribution.")

let paper = Workload.paper_default

let spec_of ~records ~ops ~dist =
  { paper with Workload.record_count = records; operation_count = ops;
    distribution = dist }

let kv_cmd =
  let rows = Flag_table.doc Flag_table.kv in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & tinfo ~rows [ "trace" ] ~docv:"FILE"
          ~doc:"Record telemetry during the run and write a Chrome \
                trace_event file to $(docv) (load in chrome://tracing or \
                Perfetto).")
  in
  let compare_arg =
    Arg.(
      value & flag
      & tinfo ~rows [ "compare" ]
          ~doc:
            "Run all four execution modes (in parallel when --jobs > 1) and \
             print a comparative table instead of a single-mode report.")
  in
  let latency_arg =
    Arg.(
      value & flag
      & tinfo ~rows [ "latency" ]
          ~doc:
            "Print the per-operation latency report: cycle-domain \
             percentiles (p50/p90/p99/p999/max), whole-run component \
             attribution and the slowest retained operations.")
  in
  let slow_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & tinfo ~rows [ "slow-trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event file of the slowest retained \
             operations (one thread per op, simulated cycles as \
             timestamps) to $(docv).")
  in
  let shards_arg =
    Arg.(
      value & opt positive 1
      & tinfo ~rows [ "shards" ] ~docv:"N"
          ~doc:"Shard records across $(docv) independent pools by key hash.")
  in
  let batch_arg =
    Arg.(
      value & opt positive 1
      & tinfo ~rows [ "batch" ] ~docv:"N"
          ~doc:
            "Requests per runtime entry; the entry cost is amortized across \
             the batch.")
  in
  let front_cache_arg =
    Arg.(
      value & opt non_negative 0
      & tinfo ~rows [ "front-cache" ] ~docv:"ENTRIES"
          ~doc:
            "Total DRAM front-cache entries across all shards (bounded LRU, \
             write-back to NVM); each shard gets $(docv) / --shards \
             entries, rounded down, so $(docv) must be 0 (no cache) or at \
             least --shards. May exceed the record count, in which case the \
             cache simply never evicts.")
  in
  let mix_arg =
    let mixes = List.map fst (Workload.serving_mixes ~records:1 ~ops:1) in
    Arg.(
      value
      & opt (some (names mixes)) None
      & tinfo ~rows [ "mix" ] ~docv:"NAME"
          ~doc:
            (Fmt.str
               "Run a named serving mix (%s) at --records/--ops scale.  A \
                mix sets its own key distribution."
               (String.concat ", " mixes)))
  in
  let run structure mode persist records ops dist compare jobs stats_file
      trace_file latency cfg slow_trace shards batch front_cache mix cores =
    let row =
      row_of Flag_table.kv ~structure
        [
          ("--mode", mode <> Runtime.Hw); ("--compare", compare);
          ("--mode volatile", mode = Runtime.Volatile); ("--cores", cores > 1);
          ("--persist", not (Persist.is_eager persist)); ("--mix", mix <> None);
          ("--records", records <> paper.record_count); ("--latency", latency);
          ("--ops", ops <> paper.operation_count); ("--batch", batch > 1);
          ("--distribution", dist <> paper.distribution); ("--jobs", jobs <> 0);
          ("--stats", stats_file <> None); ("--trace", trace_file <> None);
          ("--fast", not cfg.Config.timing); ("--front-cache", front_cache > 0);
          ("--slow-trace", slow_trace <> None); ("--shards", shards > 1);
        ]
    in
    if front_cache > 0 && front_cache < shards then
      bad_input
        "--front-cache %d is below --shards %d: each shard gets front-cache \
         / shards entries, rounded down; use 0 or at least %d"
        front_cache shards shards;
    let spec = spec_of ~records ~ops ~dist in
    let write_slow_trace oplats =
      Option.iter
        (fun path ->
          let agg = Oplat.create ~cell:structure () in
          List.iter (fun o -> Oplat.merge_into ~dst:agg o) oplats;
          write_file ~flag:"slow-trace" ~what:"slow-op trace" path (fun oc ->
              Oplat.write_slow_trace oc agg))
        slow_trace
    in
    with_telemetry ?trace:trace_file stats_file @@ fun () ->
    match row.Flag_table.engine with
    | `Cores ->
      (* Replicated multi-core run: each core drives its own index
         instance (in its own pool, so persistent-allocator metadata
         stays disjoint) through the seeded µ-event scheduler; the cores
         contend on the shared L2/L3/POLB/VALB. *)
      let (module M : Intf.ORDERED_MAP) = Registry.find_map structure in
      let rt = Runtime.create ~cfg ~mode ~persist () in
      let cluster = Cluster.create ~cores rt in
      let regions =
        Array.init cores (fun i ->
            Harness.region_for ~name:(Printf.sprintf "kv%d" i) rt mode)
      in
      let body core =
        let crt = Cluster.rt cluster core in
        let m = M.create crt regions.(core) in
        for i = 0 to records - 1 do
          Workload.load_record ~insert:(M.insert m) i
        done;
        let apply = Workload.apply ~find:(M.find m) ~insert:(M.insert m) in
        Workload.iter_ops spec (fun op ->
            apply op;
            (* Per-core epoch boundary: each core's op count drives its
               own epoch clock; the drains serialize through the shared
               persist engine. *)
            Runtime.persist_op_boundary crt)
      in
      Cluster.run cluster (Array.init cores (fun _ -> body));
      Runtime.persist_sync rt;
      Fmt.pr "multi-core kv  %s (%s), %d cores, %d records + %d ops per core@."
        M.name (Runtime.mode_name mode) cores records ops;
      Array.iteri
        (fun i crt ->
          let s = Runtime.snapshot crt in
          Fmt.pr "core %d      %d cycles, %d instructions, IPC %.3f@." i
            s.Cpu.cycles s.Cpu.instrs
            (float_of_int s.Cpu.instrs /. float_of_int (max 1 s.Cpu.cycles)))
        (Cluster.rts cluster);
      print_cluster_stats cluster
    | `Serving ->
      let spec =
        Option.fold ~none:spec
          ~some:(fun name ->
            List.assoc name (Workload.serving_mixes ~records ~ops))
          mix
      in
      let config =
        Serving.default_config ~structure ~mode ~cfg ~shards ~batch
          ~front_cache spec
      in
      let report =
        with_pool jobs (fun pool -> Serving.run ~par:(Pool.run pool) config)
      in
      print_serving report;
      if latency then print_latency report.Serving.oplat;
      write_slow_trace [ report.Serving.oplat ]
    | `Harness ->
      let r = Harness.run_benchmark structure ~mode ~cfg ~persist spec in
      print_result r;
      if latency then print_latency r.Harness.oplat;
      write_slow_trace [ r.Harness.oplat ]
    | `Compare ->
      let modes =
        [ Runtime.Volatile; Runtime.Explicit; Runtime.Sw; Runtime.Hw ]
      in
      let results =
        with_pool jobs (fun pool ->
            Pool.map pool
              (fun mode ->
                Harness.run_benchmark structure ~mode ~cfg ~persist spec)
              modes)
      in
      let base =
        match results with
        | r :: _ -> float_of_int r.Harness.run.Cpu.cycles
        | [] -> 1.
      in
      Fmt.pr "%-10s %14s %9s %12s %10s@." "mode" "cycles" "vs vol"
        "NVM accesses" "checks";
      List.iter
        (fun (r : Harness.result) ->
          let s = r.Harness.run in
          Fmt.pr "%-10s %14d %8.2fx %12d %10d@."
            (Runtime.mode_name r.Harness.mode)
            s.Cpu.cycles
            (float_of_int s.Cpu.cycles /. base)
            s.Cpu.nvm_accesses r.Harness.checks.Harness.dynamic_checks)
        results;
      if latency then begin
        Fmt.pr "@.per-op latency (cycles)@.";
        Fmt.pr "%-10s %9s %9s %9s %9s %9s@." "mode" "p50" "p90" "p99" "p999"
          "max";
        List.iter
          (fun (r : Harness.result) ->
            let s = Latency.summary (Oplat.latency r.Harness.oplat) in
            Fmt.pr "%-10s %9d %9d %9d %9d %9d@."
              (Runtime.mode_name r.Harness.mode)
              s.Latency.p50 s.Latency.p90 s.Latency.p99 s.Latency.p999
              s.Latency.max)
          results
      end;
      write_slow_trace
        (List.map (fun (r : Harness.result) -> r.Harness.oplat) results)
  in
  Cmd.v
    (Cmd.info "kv" ~doc:"Run a YCSB workload against an index structure."
       ~man:(Flag_table.man Flag_table.kv))
    Term.(
      const run $ structure_arg ~rows benchmarks $ mode_arg ~rows ()
      $ persist_arg rows $ records_arg ~rows paper.record_count
      $ ops_arg ~rows paper.operation_count $ dist_arg rows $ compare_arg
      $ jobs_arg $ stats_arg ~rows () $ trace_arg $ latency_arg $ cfg_arg rows
      $ slow_trace_arg $ shards_arg $ batch_arg $ front_cache_arg $ mix_arg
      $ cores_arg rows)

(* --- stats --------------------------------------------------------------- *)

let stats_cmd =
  let rows = Flag_table.doc Flag_table.stats in
  let output =
    Arg.(
      value
      & opt (some string) None
      & tinfo ~rows [ "output"; "o" ] ~docv:"FILE"
          ~doc:"Write the stats JSON document to $(docv).")
  in
  let run structure records ops dist output jobs =
    ignore
      (row_of Flag_table.stats ~structure
         [
           ("--records", records <> paper.record_count);
           ("--ops", ops <> paper.operation_count); ("--jobs", jobs <> 0);
           ("--distribution", dist <> paper.distribution);
           ("--output", output <> None);
         ]);
    let spec = spec_of ~records ~ops ~dist in
    let p =
      with_pool jobs (fun pool ->
          Profile.run ~par:(Pool.run pool) ~benchmark:structure spec)
    in
    Fmt.pr "telemetry profile: %s (SW and HW cells)@." structure;
    List.iter
      (fun (k, v) -> Fmt.pr "  %-30s %.4f@." k v)
      p.Profile.derived;
    Fmt.pr "top check sites:@.";
    List.iteri
      (fun i (r : Profile.site_row) ->
        if i < 8 then
          Fmt.pr "  %-30s %s %d@." r.Profile.site
            (if r.Profile.static then "static " else "dynamic")
            r.Profile.checks)
      p.Profile.sites;
    Option.iter
      (fun path ->
        write_file ~flag:"output" ~what:"stats" path (fun oc ->
            Json.to_channel oc (Profile.stats_json p);
            output_char oc '\n'))
      output
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Profile a YCSB run: per-site dynamic checks, POLB/VALB hit rates, \
          cycle attribution."
       ~man:(Flag_table.man Flag_table.stats))
    Term.(
      const run $ structure_arg ~rows benchmarks
      $ records_arg ~rows paper.record_count
      $ ops_arg ~rows paper.operation_count $ dist_arg rows $ output $ jobs_arg)

(* --- knn ------------------------------------------------------------------- *)

let knn_cmd =
  let k =
    let range = Fmt.str "an integer in 1..%d" (Iris.total_samples - 1) in
    Arg.(
      value
      & opt (checked int (fun k -> k >= 1 && k < Iris.total_samples) range) 3
      & info [ "k" ] ~doc:("Neighbours to consider, " ^ range ^ "."))
  in
  let run mode k =
    let acc, s = Knn.case_study ~mode ~k in
    Fmt.pr "KNN (k=%d, %s): %d cycles, %d memory accesses, accuracy %.1f%%@."
      k (Runtime.mode_name mode) s.Cpu.cycles s.Cpu.mem_accesses (100. *. acc)
  in
  Cmd.v
    (Cmd.info "knn" ~doc:"Run the KNN case study on the iris dataset.")
    Term.(const run $ mode_arg () $ k)

(* --- soundness ---------------------------------------------------------------- *)

let soundness_cmd =
  let run jobs =
    let results =
      with_pool jobs (fun pool ->
          Pool.map pool (fun (_, program) -> Soundness.check program) Corpus.all)
    in
    List.iter2
      (fun (name, _) oks ->
        List.iter2
          (fun (c : Soundness.config) ok ->
            Fmt.pr "%-14s %-12s %s@." name c.label
              (if ok then "ok" else "MISMATCH"))
          Soundness.configs oks)
      Corpus.all results;
    match List.length (List.filter not (List.concat results)) with
    | 0 -> Fmt.pr "all corpus runs sound@."
    | n -> Fmt.pr "%d mismatches@." n
  in
  Cmd.v
    (Cmd.info "soundness"
       ~doc:"Replay the mini-C corpus under every configuration.")
    Term.(const run $ jobs_arg)

(* --- inference ------------------------------------------------------------------ *)

let inference_cmd =
  let run () =
    List.iter
      (fun (name, program) ->
        let r = Inference.infer program in
        Fmt.pr "%-14s %3d pointer-op sites, %3d still checked (%.0f%%)@." name
          r.Inference.total_sites r.Inference.checked_sites
          (100. *. Inference.fraction_checked r))
      Corpus.all
  in
  Cmd.v
    (Cmd.info "inference"
       ~doc:"Run the pointer-property inference over the corpus.")
    Term.(const run $ const ())

(* --- run / compile mini-C source files ---------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse_file path =
  try Nvml_minic.Parser.parse_program (read_file path) with
  | Nvml_minic.Lexer.Lex_error (m, l, c) ->
      Fmt.epr "%s:%d:%d: lexical error: %s@." path l c m;
      exit 1
  | Nvml_minic.Parser.Parse_error (m, l, c) ->
      Fmt.epr "%s:%d:%d: syntax error: %s@." path l c m;
      exit 1

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"A mini-C source file.")

(* Shared by the verification engines that drive a simulated core (fuzz,
   faultinject): they default to fast functional simulation and offer
   the cycle-accurate core as an opt-out. *)
let timing_arg ?rows () =
  Arg.(
    value & flag
    & tinfo ?rows [ "timing" ]
        ~doc:
          "Run the cycle-accurate core instead of the default fast \
           functional mode.  Functional results (checks, crash points, \
           verdicts, reports) are identical either way; only wall-clock \
           and timing statistics differ.")

let run_cmd =
  let rows = Flag_table.doc Flag_table.run in
  let persistent =
    Arg.(
      value & flag
      & tinfo ~rows [ "persistent"; "p" ]
          ~doc:"Place the heap in a persistent pool (libvmmalloc-style).")
  in
  let run path mode persist persistent cfg cores =
    ignore
      (row_of Flag_table.run
         [
           ("--mode", mode <> Runtime.Hw); ("--persistent", persistent);
           ("--mode volatile", mode = Runtime.Volatile); ("--cores", cores > 1);
           ("--persist", not (Persist.is_eager persist));
           ("--fast", not cfg.Config.timing);
         ]);
    let program = parse_file path in
    let report_errors f =
      try f () with
      | Nvml_minic.Types.Type_error m ->
          Fmt.epr "type error: %s@." m;
          exit 1
      | Interp.Runtime_error m ->
          Fmt.epr "runtime error: %s@." m;
          exit 1
    in
    if cores = 1 then begin
      let rt, outcome =
        report_errors (fun () ->
            Interp.run_fresh ~cfg ~persist ~mode ~persistent program)
      in
      List.iter (Fmt.pr "%Ld@.") outcome.Interp.output;
      (* Mini-C has no operation boundaries, so a relaxed model treats
         the whole program as one epoch; close it before reporting.  A
         fresh machine's counters start at zero. *)
      Runtime.persist_sync rt;
      let s = Runtime.snapshot rt in
      Fmt.epr "[%s, heap=%s] %d cycles, %d instructions, %d memory accesses@."
        (Runtime.mode_name mode)
        (if persistent then "NVM" else "DRAM")
        s.Cpu.cycles s.Cpu.instrs s.Cpu.mem_accesses
    end
    else begin
      (* One replica of the program per core (each with its own heap, so
         persistent-allocator metadata stays disjoint), interleaved per
         µ-event over the shared cache hierarchy. *)
      let rt = Runtime.create ~cfg ~mode ~persist () in
      let cluster = Cluster.create ~cores rt in
      let heaps =
        Array.init cores (fun i ->
            Interp.heap_for ~name:(Printf.sprintf "heap%d" i) rt ~persistent)
      in
      let outputs = Array.make cores [] in
      let body core =
        let outcome =
          Interp.run (Cluster.rt cluster core) ~heap:heaps.(core) program
            ~args:[]
        in
        outputs.(core) <- outcome.Interp.output
      in
      report_errors (fun () ->
          Cluster.run cluster (Array.init cores (fun _ -> body)));
      Runtime.persist_sync rt;
      Array.iteri
        (fun i out ->
          List.iter (fun v -> Fmt.pr "[core %d] %Ld@." i v) out)
        outputs;
      Array.iteri
        (fun i crt ->
          let s = Runtime.snapshot crt in
          Fmt.epr
            "[core %d] [%s, heap=%s] %d cycles, %d instructions, %d memory \
             accesses@."
            i
            (Runtime.mode_name mode)
            (if persistent then "NVM" else "DRAM")
            s.Cpu.cycles s.Cpu.instrs s.Cpu.mem_accesses)
        (Cluster.rts cluster);
      print_cluster_stats cluster
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Interpret a mini-C source file on the simulator."
       ~man:(Flag_table.man Flag_table.run))
    Term.(
      const run $ file_arg $ mode_arg ~rows () $ persist_arg rows $ persistent
      $ cfg_arg rows $ cores_arg rows)

let compile_cmd =
  let run path =
    let program = parse_file path in
    print_endline (Nvml_comp.Codegen.generated_source program)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Show the Fig. 9-style instrumented code the SW compiler pass \
          generates for a mini-C source file.")
    Term.(const run $ file_arg)

(* --- faultinject ------------------------------------------------------------------------ *)

let faultinject_cmd =
  let rows = Flag_table.doc Flag_table.faultinject in
  let workload_arg =
    Arg.(
      value
      & opt (choice [ ("kv", `Kv); ("counter", `Counter); ("conc", `Conc) ]) `Kv
      & tinfo ~rows [ "workload"; "w" ] ~docv:"NAME"
          ~doc:
            "Workload to sweep: $(b,kv) (YCSB stream against --structure), \
             $(b,counter) (3-store transactions over a flat array) or \
             $(b,conc) (the durably-linearizable concurrent structures on \
             the --cores multi-core machine; --seed drives the schedule, \
             --ops is per core).")
  in
  let every_n_arg =
    Arg.(
      value & opt positive 1
      & tinfo ~rows [ "every-n"; "n" ] ~docv:"N"
          ~doc:
            "Crash at every $(docv)th persistence event (1 = exhaustive).")
  in
  let at_arg =
    Arg.(
      value & opt_all int []
      & tinfo ~rows [ "at" ] ~docv:"EVENT"
          ~doc:
            "Crash at this exact event index (repeatable).  An out-of-range \
             index exits with an error naming the workload's valid event \
             range.")
  in
  let torn_arg =
    Arg.(
      value & flag
      & tinfo ~rows [ "torn" ]
          ~doc:
            "Additionally tear the interrupted store: the word is replaced \
             by a seeded byte-mix of its old and new value, modelling a \
             power failure mid-write.  Undo-log words are exempt (the log \
             protocol assumes 8-byte atomicity).")
  in
  let max_points_arg =
    Arg.(
      value & opt (some positive) None
      & tinfo ~rows [ "max-points" ] ~docv:"N"
          ~doc:"Stop after the first $(docv) crash points (smoke runs).")
  in
  let break_arg =
    Arg.(
      value & flag
      & tinfo ~rows [ "break-recovery" ]
          ~doc:
            "Checker self-test: skip log recovery after each crash and \
             report the violations the checker finds.")
  in
  let default_records = 30 and default_ops = 100 in
  let run mode persist workload structure records ops every_n at torn seed
      max_points break_recovery jobs timing cores =
    ignore
      (row_of Flag_table.faultinject ~structure
         [
           ("--mode", mode <> Runtime.Hw); ("--workload", workload <> `Kv);
           ("--persist", not (Persist.is_eager persist)); ("--torn", torn);
           ("--workload counter", workload = `Counter); ("--at", at <> []);
           ("--workload conc", workload = `Conc); ("--seed", seed <> 1);
           ("--structure", structure <> Flag_table.default_structure);
           ("--records", records <> default_records); ("--timing", timing);
           ("--ops", ops <> default_ops); ("--every-n", every_n > 1);
           ("--max-points", max_points <> None); ("--cores", cores > 1);
           ("--break-recovery", break_recovery); ("--jobs", jobs <> 0);
         ]);
    let w =
      match workload with
      | `Kv -> Faultinject.kv_workload ~structure ~records ~ops ()
      | `Counter -> Faultinject.counter_workload ~ops ()
      | `Conc ->
          Faultinject.conc_workload ~cores ~ops_per_core:ops ~sched_seed:seed ()
    in
    let spec =
      { Faultinject.every_n; at; torn; seed; max_points; break_recovery }
    in
    (* [--at] out of range surfaces as Invalid_argument naming the
       workload's valid event range; it is bad input. *)
    let report =
      with_pool jobs (fun pool ->
          try Faultinject.run ~par:(Pool.run pool) ~mode ~persist ~spec ~timing w
          with Invalid_argument m -> bad_input "%s" m)
    in
    Fmt.pr "%a@." Faultinject.pp_report report;
    if report.Faultinject.violations <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "faultinject"
       ~doc:
         "Crash-point fault injection: re-run a workload, losing power at \
          every chosen persistence event, and check that recovery restores \
          a consistent state."
       ~man:
         ([
           `S Manpage.s_description;
           `P
             "A reference pass counts every persistence-relevant event of \
              the workload (persistent stores, storeP retirements, undo-log \
              appends, allocator metadata writes).  Each selected event \
              index is then replayed on a fresh machine that crashes \
              exactly there; after reboot, pool re-open and log recovery, \
              the checker validates structural invariants, pointer \
              reachability, transaction atomicity against pre/post-op \
              snapshots, and the persistent freelist.  The conc workload \
              has no transactions: its recovered counter and list must \
              equal the durable values at the crash event and lie between \
              the completed and the invoked operations.";
           `P
             "Under a relaxed persistency model (--persist epoch:N or lazy) \
              the sweep additionally arms the contract oracle: a pure pass \
              over the reference µ-event schedule predicts, for every crash \
              point, exactly which committed operation suffix is legitimately \
              lost, and recovery must land on precisely that predicted epoch \
              boundary — losing more or less than the contract allows is a \
              violation either way.";
           `P "Exits 1 if any crash point produced a violation.";
         ]
         @ Flag_table.man Flag_table.faultinject))
    Term.(
      const run $ mode_arg ~rows ~durable:true () $ persist_arg rows
      $ workload_arg $ structure_arg ~rows maps
      $ records_arg ~rows default_records $ ops_arg ~rows default_ops
      $ every_n_arg $ at_arg $ torn_arg
      $ seed_arg ~rows
          "Seed for the torn byte masks or the multi-core schedule; sweeps \
           with the same seed replay bit-identically."
      $ max_points_arg $ break_arg $ jobs_arg $ timing_arg ~rows ()
      $ cores_arg rows)

(* --- fuzz ----------------------------------------------------------------------------- *)

let fuzz_cmd =
  let component_arg =
    Arg.(
      value
      & opt_all (names ("structures" :: Modelcheck.names ())) []
      & info [ "component"; "c" ] ~docv:"NAME"
          ~doc:
            "Component to fuzz (repeatable; default all). One of cache, \
             valb, storep, vatb, freelist, pmop, semantics, zipf, \
             structures (all containers) or structures:$(i,NAME).")
  in
  let break_arg =
    Arg.(
      value & flag
      & info [ "break" ]
          ~doc:
            "Fuzzer self-test: re-enable the historical bugs (quirks) in \
             quirk-capable components and demand the fuzzer finds each \
             one while every other component stays clean.")
  in
  let run components ops seed seeds break jobs stats_file timing =
    let reports =
      with_pool jobs (fun pool ->
          with_telemetry stats_file @@ fun () ->
          List.init seeds (fun i ->
              Modelcheck.run ~pool ~break ~timing ~components ~ops
                ~seed:(seed + i) ()))
    in
    List.iter (Fmt.pr "%a" Modelcheck.pp_report) reports;
    if break then begin
      if List.for_all Modelcheck.break_run_ok reports then
        Fmt.pr "fuzz --break: every planted bug was found@."
      else begin
        Fmt.pr "fuzz --break: self-test FAILED (a planted bug escaped, or \
                a clean component reported a violation)@.";
        exit 1
      end
    end
    else
      List.iter
        (fun (r : Modelcheck.report) ->
          if r.Modelcheck.violations > 0 then begin
            List.iter
              (fun (e : Modelcheck.entry) ->
                match e.Modelcheck.result.Engine.violation with
                | Some _ ->
                    Fmt.pr "replay: nvml fuzz --component %s --seed %d \
                            --ops %d@."
                      e.Modelcheck.spec_name e.Modelcheck.result.Engine.seed
                      ops
                | None -> ())
              r.Modelcheck.entries;
            exit 1
          end)
        reports
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Model-based differential fuzzing of the simulated components."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Each component (POLB cache, VALB, storeP unit, VATB B-tree, \
              freelist allocator, pool manager, every persistent container, \
              plus two cross-layer properties: SW-vs-HW pointer-semantics \
              equivalence on the mini-C corpus and YCSB distribution \
              statistics) runs in lockstep with an obviously-correct \
              reference model on a seeded random op stream.  Any divergence \
              or broken invariant is shrunk to a minimal counterexample by \
              greedy delta-debugging and reported with a replayable seed.";
           `P "Exits 1 on any violation (or a failed --break self-test).";
         ])
    Term.(
      const run $ component_arg
      $ ops_arg
          ~doc:
            "Ops per component run (heavyweight harnesses scale this down; \
             see DESIGN.md)."
          256
      $ seed_arg
          "Stream seed. A run is deterministic in (component, seed, ops), \
           so a reported violation replays bit-identically."
      $ seeds_arg $ break_arg $ jobs_arg $ stats_arg () $ timing_arg ())

(* --- scrub ---------------------------------------------------------------------------- *)

let scrub_cmd =
  let pools_arg =
    Arg.(
      value & opt positive 3
      & info [ "pools" ] ~docv:"N" ~doc:"Pools per cell.")
  in
  let rate_arg =
    Arg.(
      value & opt probability 5e-4
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Per-word (per-line for poison) fault probability for each \
             enabled kind; 0 disables injection.")
  in
  let kinds_arg =
    let kinds = List.map (fun k -> (Media.kind_name k, k)) Media.all_kinds in
    Arg.(
      value
      & opt_all (choice kinds) []
      & info [ "kinds" ] ~docv:"KIND"
          ~doc:
            "Fault kinds to inject (repeatable): $(b,flip), $(b,poison), \
             $(b,transient). Default: all three.")
  in
  let repair_arg =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "Repair what the replica superblock can vouch for and re-seal; \
             without it the scrub only reports and degrades.")
  in
  let report_arg =
    Arg.(
      value & flag
      & info [ "report" ]
          ~doc:
            "Print the full per-pool findings report for every cell, not \
             just the summary line.")
  in
  let allow_loss_arg =
    Arg.(
      value & flag
      & info [ "allow-loss" ]
          ~doc:"Exit 0 even when unrepairable damage remains (smoke runs).")
  in
  let run pools records rate kinds seed seeds repair report allow_loss jobs
      stats_file =
    let replay_flags =
      Fmt.str "--rate %g%s%s" rate
        (String.concat ""
           (List.map (fun k -> " --kinds " ^ Media.kind_name k) kinds))
        (if repair then " --repair" else "")
    in
    let cells =
      with_pool jobs (fun pool ->
          with_telemetry stats_file @@ fun () ->
          Pool.run pool
            (List.init seeds (fun i () ->
                 Mediacheck.run_cell
                   {
                     Mediacheck.pools;
                     records;
                     rate;
                     kinds;
                     seed = seed + i;
                     repair;
                   })))
    in
    List.iter
      (fun (c : Mediacheck.cell) ->
        Fmt.pr "%a@." Mediacheck.pp_summary c;
        if report then Fmt.pr "%a@." Scrub.pp_report c.Mediacheck.report;
        List.iter
          (fun m -> Fmt.pr "  MISPREDICTION %s@." m)
          c.Mediacheck.mispredictions)
      cells;
    let mispredicted =
      List.filter (fun c -> c.Mediacheck.mispredictions <> []) cells
    in
    if mispredicted <> [] then begin
      List.iter
        (fun (c : Mediacheck.cell) ->
          Fmt.pr
            "scrub: report disagrees with the injection ground truth — \
             replay: nvml scrub --seed %d %s@."
            c.Mediacheck.seed replay_flags)
        mispredicted;
      exit 2
    end;
    let lossy =
      List.filter
        (fun (c : Mediacheck.cell) ->
          c.Mediacheck.report.Scrub.unrepairable > 0)
        cells
    in
    if lossy <> [] && not allow_loss then begin
      List.iter
        (fun (c : Mediacheck.cell) ->
          Fmt.pr "replay: nvml scrub --seed %d %s --report@." c.Mediacheck.seed
            replay_flags)
        lossy;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Verify and repair pool integrity metadata under seeded media-error \
          injection."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Each cell builds pools on a fresh machine, populates and seals \
              them, switches on the media-error injector (bit flips, \
              poisoned lines, transient read faults — a pure function of \
              (seed, frame, word)), and runs the scrub engine: every \
              superblock checksum (primary and replica), every block-header \
              checksum, the free-list chain, root reachability, and a \
              payload probe of every live object.  With $(b,--repair) a \
              corrupt primary superblock is restored from an intact replica \
              and a corrupt replica is rewritten by re-sealing; pools with \
              unrepairable primary-side damage are left attached read-only \
              (degraded).";
           `P
             "Because fault placement is pure, the cell predicts every \
              finding from the injector's ground truth before the scrub \
              runs, and the two are compared exactly: any disagreement is \
              reported as a MISPREDICTION and exits 2.  Exits 1 (with a \
              replayable seed) if unrepairable damage remains and \
              $(b,--allow-loss) was not given.";
         ])
    Term.(
      const run $ pools_arg
      $ records_arg
          ~doc:
            "Objects allocated per pool before sealing (a third are freed \
             again so the free list has interior nodes)."
          48
      $ rate_arg $ kinds_arg
      $ seed_arg
          "Cell seed (population and fault placement); a cell replays \
           bit-identically from (seed, rate, kinds)."
      $ seeds_arg $ repair_arg $ report_arg $ allow_loss_arg $ jobs_arg
      $ stats_arg ())

(* --- shell ---------------------------------------------------------------------------- *)

let shell_cmd =
  let run mode structure seed =
    let shell = Nvml_kvstore.Shell.create ~mode ~structure ~seed () in
    Fmt.pr "persistent KV store (%s on %s) — 'help' for commands, 'quit' to \
            leave@."
      structure (Runtime.mode_name mode);
    let rec loop () =
      Fmt.pr "nvml> %!";
      match In_channel.input_line stdin with
      | None | Some "quit" | Some "exit" -> Fmt.pr "bye@."
      | Some line ->
          List.iter (Fmt.pr "%s@.") (Nvml_kvstore.Shell.exec shell line);
          loop ()
    in
    loop ()
  in
  Cmd.v
    (Cmd.info "shell"
       ~doc:"Interactive persistent key-value store with a crash command.")
    Term.(
      const run $ mode_arg ~durable:true () $ structure_arg maps
      $ seed_arg ~default:0
          "Seed for the 'crash torn' byte masks, so scripted sessions replay \
           bit-identically.")

(* --- info ------------------------------------------------------------------------- *)

let info_cmd =
  let run () =
    Fmt.pr "simulated machine:@.";
    List.iter
      (fun (k, v) -> Fmt.pr "  %-18s %s@." k v)
      (Config.rows Config.default);
    Fmt.pr "benchmark structures: %s@."
      (String.concat ", " Nvml_structures.Registry.benchmark_names)
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print the simulated machine configuration.")
    Term.(const run $ const ())

let () =
  let doc = "user-transparent persistent references on simulated NVM" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "nvml" ~version:"1.0.0" ~doc)
          [ kv_cmd; stats_cmd; knn_cmd; soundness_cmd; inference_cmd; run_cmd;
            compile_cmd; faultinject_cmd; fuzz_cmd; scrub_cmd; shell_cmd;
            info_cmd ]))
