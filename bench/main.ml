(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation section (and the supporting analyses) against the
   simulated machine.

   Usage:
     dune exec bench/main.exe                 # everything, paper scale
     dune exec bench/main.exe -- --quick      # 10x smaller workloads
     dune exec bench/main.exe -- fig11 table5 # selected experiments
     dune exec bench/main.exe -- --jobs 4     # parallel simulation cells
     dune exec bench/main.exe -- --bench BENCH_6.json  # perf trajectory
     dune exec bench/main.exe -- --stats stats.json --trace trace.json
     dune exec bench/main.exe -- --metrics-json m.json  # metrics only
     dune exec bench/main.exe -- --list

   Independent simulation cells run on a domain worker pool sized by
   --jobs (default: the machine's recommended domain count).  --jobs 1
   reproduces the sequential output exactly. *)

module Workload = Nvml_ycsb.Workload
module Pool = Nvml_exec.Pool
module Telemetry = Nvml_telemetry.Telemetry
module Json = Nvml_telemetry.Json
module Profile = Nvml_kvstore.Profile
module Oplat = Nvml_runtime.Oplat

(* Every experiment: name, the core it drives (the --bench document's
   mode breakdown), description, entry point.  "fast" experiments run
   the verification engines, which default to fast functional
   simulation; "cycle" experiments measure timing on the cycle-accurate
   core; "other" experiments do no simulation worth classifying (static
   tables, compiler output, micro-benchmarks). *)
let all_experiments :
    (string * string * string * (Experiments.ctx -> unit)) list =
  [
    ("table2", "other", "HW structure storage cost", Experiments.table2);
    ("table3", "other", "benchmark inventory", Experiments.table3);
    ("table4", "other", "simulator parameters", Experiments.table4);
    ("table5", "cycle", "dynamic checks and conversions (SW)", Experiments.table5);
    ("fig11", "cycle", "execution time normalized to volatile", Experiments.fig11);
    ("fig12", "cycle", "translation-reuse codelet", Experiments.fig12);
    ("fig9", "other", "compiler-generated code sample", Experiments.fig9);
    ("fig13", "cycle", "branch mispredictions normalized", Experiments.fig13);
    ("fig14", "cycle", "VALB/VAW latency sensitivity", Experiments.fig14);
    ("fig15", "cycle", "translation-hardware access fractions", Experiments.fig15);
    ("profile", "cycle", "telemetry: check sites, lookasides, cycles", Experiments.profile);
    ("table6", "cycle", "relocation overhead comparison", Experiments.table6);
    ("knn", "cycle", "KNN case study + productivity", Experiments.knn);
    ("soundness", "cycle", "mini-C corpus soundness runs", Experiments.soundness);
    ("compiler", "other", "pointer-property inference stats", Experiments.compiler);
    ("productivity", "other", "library migration cost table", Experiments.productivity);
    ("ablation", "cycle", "design-choice ablations", Experiments.ablation);
    ("extended", "cycle", "extended structure set", Experiments.extended);
    ("multipool", "cycle", "pool-count capacity sweep", Experiments.multipool);
    ("txn", "cycle", "transaction overhead", Experiments.txn_overhead);
    ("faultinject", "fast", "crash-point recovery sweep", Experiments.faultinject);
    ("scrub", "fast", "media-error detection/repair coverage", Experiments.scrub);
    ("serving", "fast", "sharded serving engine throughput/latency", Experiments.serving);
    ("concurrent", "cycle", "multi-core contention, FliT elision, durability", Experiments.concurrent);
    ("persist", "cycle", "persistency-model sweep: drain savings vs loss exposure", Experiments.persist);
    ("sweep", "cycle", "NVM latency and working-set sweeps", Experiments.sweep);
    ("micro", "other", "bechamel micro-benchmarks", Experiments.micro);
  ]

(* A metric prints as a JSON integer when it is integral, so the
   documents read back with the values the experiments recorded. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Json.Int (Float.to_int v)
  else Json.Float v

(* Wall-clock seconds at millisecond resolution. *)
let seconds s = Json.Float (Float.round (s *. 1000.) /. 1000.)

(* The deterministic metrics ride along in every document, so trajectory
   baselines can floor more than wall-clocks (e.g. the persist
   experiment's epoch-mode cycle-savings fractions). *)
let metrics timings =
  ( "metrics",
    Json.Obj
      (List.concat_map
         (fun (_, _, _, (out : Experiments.out)) ->
           List.rev_map (fun (name, v) -> (name, number v)) out.metrics)
         timings) )

(* The perf-trajectory document (BENCH_<n>.json): suite wall-clock, a
   wall-clock breakdown by execution mode, and per-experiment wall,
   operation count, ops/sec and latency.  Schema checked by
   [check_stats --bench]. *)
let bench_json ~spec ~quick ~jobs ~timings ~total =
  let wall_of m =
    List.fold_left
      (fun acc (_, mode, wall, _) -> if mode = m then acc +. wall else acc)
      0.0 timings
  in
  let experiment (name, mode, wall, (out : Experiments.out)) =
    let ops = Experiments.ops out in
    Json.Obj
      ([
         ("name", Json.String name);
         ("mode", Json.String mode);
         ("wall_s", seconds wall);
         ("ops", Json.Int ops);
         ( "ops_per_s",
           number (if wall > 0.0 then float_of_int ops /. wall else 0.0) );
       ]
      @
      if Oplat.count out.latency = 0 then []
      else [ ("latency", Oplat.summary_json out.latency) ])
  in
  Json.Obj
    [
      ("schema", Json.Int 1);
      ("kind", Json.String "bench-trajectory");
      ("workload", Json.String (Fmt.str "%a" Workload.pp_spec spec));
      ("quick", Json.Bool quick);
      ("jobs", Json.Int jobs);
      ("suite_wall_s", seconds total);
      ( "mode_breakdown",
        Json.Obj
          (List.map
             (fun m -> (m ^ "_wall_s", seconds (wall_of m)))
             [ "fast"; "cycle"; "other" ]) );
      ("experiments", Json.List (List.map experiment timings));
      metrics timings;
    ]

(* The metrics alone, without wall timings — byte-identical across
   [--jobs N] by construction, which the determinism test relies on. *)
let metrics_json timings = Json.Obj [ ("schema", Json.Int 1); metrics timings ]

let switches = [ "--quick"; "--quiet"; "--list" ]
let value_flags = [ "--jobs"; "--bench"; "--stats"; "--trace"; "--metrics-json" ]

(* Bad input on the command line exits 1 with a message. *)
let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

(* Split the command line into switches, flag values and experiment
   names.  A flag that is not one of the above, or a value flag with no
   value, is an error: skipping it would, for a misspelt --quick, run
   the 10x larger suite. *)
let parse_args args =
  let rec go set values names = function
    | [] -> (set, values, List.rev names)
    | "--" :: rest -> go set values names rest
    | a :: rest when List.mem a switches -> go (a :: set) values names rest
    | a :: rest when List.mem a value_flags -> (
        match rest with
        | v :: rest -> go set ((a, v) :: values) names rest
        | [] -> fail "%s expects a value" a)
    | a :: _ when String.length a > 1 && a.[0] = '-' ->
        fail "unknown flag %S (flags: %s)" a
          (String.concat " " (switches @ value_flags))
    | a :: rest -> go set values (a :: names) rest
  in
  go [] [] [] args

let () =
  let set, values, selected = parse_args (List.tl (Array.to_list Sys.argv)) in
  let value flag = List.assoc_opt flag values in
  if List.mem "--list" set then begin
    List.iter
      (fun (name, _, doc, _) -> Printf.printf "%-14s %s\n" name doc)
      all_experiments;
    exit 0
  end;
  let chosen =
    match selected with
    | [] -> all_experiments
    | names ->
        List.mapi
          (fun i n ->
            if List.mem n (List.filteri (fun j _ -> j < i) names) then
              fail "experiment %S named twice" n;
            match
              List.find_opt (fun (name, _, _, _) -> name = n) all_experiments
            with
            | Some e -> e
            | None -> fail "unknown experiment %S (try --list)" n)
          names
  in
  let jobs =
    match value "--jobs" with
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n >= 1 -> n
        | _ -> fail "--jobs expects a positive integer, got %S" s)
    | None -> Pool.default_jobs ()
  in
  (* Open the output sinks before the (long) run so a bad path fails fast. *)
  let open_sink flag = function
    | None -> None
    | Some path -> (
        try Some (open_out path) with Sys_error msg -> fail "%s: %s" flag msg)
  in
  let bench_out = open_sink "--bench" (value "--bench") in
  let stats_out = open_sink "--stats" (value "--stats") in
  let trace_out = open_sink "--trace" (value "--trace") in
  let metrics_out = open_sink "--metrics-json" (value "--metrics-json") in
  let quick = List.mem "--quick" set in
  let verbose = not (List.mem "--quiet" set) in
  let spec =
    if quick then Workload.scale Workload.paper_default 10
    else Workload.paper_default
  in
  let ctx = Experiments.context ~spec ~quick ~verbose (Pool.create ~jobs ()) in
  Printf.printf
    "nvml benchmark harness — workload: %s%s\n"
    (Fmt.str "%a" Workload.pp_spec spec)
    (if quick then " [quick]" else "");
  (* [micro] times host code, and live worker domains, even idle ones,
     slow every row several-fold: it runs with the pool shut down, and
     what follows it gets a fresh pool. *)
  let run_one (ctx : Experiments.ctx) (name, mode, _, f) =
    let te = Unix.gettimeofday () in
    let ctx, out =
      if name = "micro" then begin
        Pool.shutdown ctx.pool;
        let out = Experiments.run { ctx with pool = Pool.create ~jobs:1 () } f in
        ({ ctx with pool = Pool.create ~jobs () }, out)
      end
      else (ctx, Experiments.run ctx f)
    in
    (ctx, (name, mode, Unix.gettimeofday () -. te, out))
  in
  (* [--trace] records every experiment into one sink (the worker-pool
     sinks merge into it at each join) and writes it when they end. *)
  let record f = if trace_out = None then f () else Telemetry.recording f in
  let ctx, timings, total =
    record (fun () ->
        let t0 = Unix.gettimeofday () in
        let ctx, timings = List.fold_left_map run_one ctx chosen in
        let total = Unix.gettimeofday () -. t0 in
        Option.iter
          (fun oc ->
            Telemetry.write_chrome_trace oc;
            close_out oc)
          trace_out;
        (ctx, timings, total))
  in
  (* On stderr, so stdout is a function of the inputs alone. *)
  flush stdout;
  Printf.eprintf "\nTotal wall time: %.1fs\n%!" total;
  let write doc oc =
    Json.to_channel oc doc;
    output_char oc '\n';
    close_out oc
  in
  Option.iter (write (bench_json ~spec ~quick ~jobs ~timings ~total)) bench_out;
  Option.iter (write (metrics_json timings)) metrics_out;
  (* The stats document from the profile run — produced on demand when
     the [profile] experiment was not part of the selection. *)
  Option.iter
    (fun oc ->
      let p =
        match
          List.find_map
            (fun (_, _, _, (out : Experiments.out)) -> out.profile)
            timings
        with
        | Some p -> p
        | None -> Profile.run ~par:(Pool.run ctx.pool) ~benchmark:"RB" spec
      in
      write (Profile.stats_json p) oc)
    stats_out;
  Pool.shutdown ctx.pool
