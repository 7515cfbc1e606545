(* The experiment implementations: one entry per table and figure of
   the paper's evaluation section (see DESIGN.md's per-experiment
   index).  Every harness cell runs through [results] and its memo, so
   each runs once per process: the 6-benchmark x 4-mode matrix is
   computed once for Table V and Figures 11, 13 and 15, and a sweep
   point equal to a matrix cell reuses it. *)

module Config = Nvml_arch.Config
module Cpu = Nvml_arch.Cpu
module Hw_cost = Nvml_arch.Hw_cost
module Ptr = Nvml_core.Ptr
module Xlate = Nvml_core.Xlate
module Checks = Nvml_core.Checks
module Runtime = Nvml_runtime.Runtime
module Persist = Nvml_runtime.Persist
module Oplat = Nvml_runtime.Oplat
module Site = Nvml_runtime.Site
module Registry = Nvml_structures.Registry
module Workload = Nvml_ycsb.Workload
module Harness = Nvml_kvstore.Harness
module Profile = Nvml_kvstore.Profile
module Latency = Nvml_telemetry.Latency
module Iris = Nvml_mlkit.Iris
module Knn = Nvml_mlkit.Knn
module Corpus = Nvml_minic.Corpus
module Inference = Nvml_comp.Inference
module Soundness = Nvml_comp.Soundness
open Report

(* A harness cell: one structure in one mode, on one machine
   configuration and persistency model, replaying one workload. *)
type cell = {
  structure : string;
  mode : Runtime.mode;
  cfg : Config.t;
  persist : Persist.model;
  spec : Workload.spec;
}

(* What one experiment records for the driver's documents: its metrics
   (newest first), the ops it executed outside harness cells, the
   distinct harness cells it read, the merged per-op recorders of the
   cells whose latency it reports, and the profile it ran (the --stats
   document).  Every field is filled on the main domain after the
   pool joins, so the documents do not depend on --jobs. *)
type out = {
  mutable metrics : (string * float) list;
  mutable own_ops : int;
  read : (cell, unit) Hashtbl.t;
  latency : Oplat.t;
  mutable profile : Profile.t option;
}

(* [quick] is main.exe's --quick: [spec] is then 10x smaller, and the
   experiments that size their own runs shrink them too.  [memo] holds
   every harness cell run so far, for all experiments; [out] is the
   running experiment's. *)
type ctx = {
  spec : Workload.spec;
  quick : bool;
  verbose : bool;
  pool : Nvml_exec.Pool.t;
  memo : (cell, Harness.result) Hashtbl.t;
  out : out;
}

let fresh_out () =
  {
    metrics = [];
    own_ops = 0;
    read = Hashtbl.create 32;
    latency = Oplat.create ~cell:"experiment" ();
    profile = None;
  }

let context ~spec ~quick ~verbose pool =
  { spec; quick; verbose; pool; memo = Hashtbl.create 128; out = fresh_out () }

(* Run one experiment with a fresh output record. *)
let run ctx f =
  let ctx = { ctx with out = fresh_out () } in
  f ctx;
  ctx.out

(* An experiment's ops: what it executed itself, plus the op stream of
   each distinct harness cell it read, whichever experiment ran it. *)
let ops out =
  Hashtbl.fold
    (fun (c : cell) () n -> n + c.spec.Workload.operation_count)
    out.read out.own_ops

let metric ctx name value = ctx.out.metrics <- (name, value) :: ctx.out.metrics
let ops_add ctx n = ctx.out.own_ops <- ctx.out.own_ops + n

let benchmarks = Registry.benchmark_names (* LL Hash RB Splay AVL SG *)

(* --- harness cells ------------------------------------------------------- *)

(* [structure] in [mode] on the default machine, eager, replaying the
   suite's spec unless told otherwise. *)
let cell ctx ?(cfg = Config.default) ?(persist = Persist.Eager) ?spec structure
    mode =
  { structure; mode; cfg; persist; spec = Option.value spec ~default:ctx.spec }

(* The results of [cells], in order.  Those not in the memo yet run
   through the pool in request order, each logged from this domain
   first; every cell of [cells] counts as read by the running
   experiment.  A cell shares nothing (it builds its own machine and
   seeds its RNG from its spec), so its result depends neither on the
   worker count nor on which experiment ran it first. *)
let results ctx cells =
  let todo =
    List.fold_left
      (fun todo c ->
        if Hashtbl.mem ctx.memo c || List.mem c todo then todo else c :: todo)
      [] cells
    |> List.rev
  in
  if ctx.verbose then
    List.iter
      (fun c ->
        Printf.eprintf "  [run] %s / %s%s...\n%!" c.structure
          (Runtime.mode_name c.mode)
          (if Persist.is_eager c.persist then ""
           else " / " ^ Persist.model_name c.persist))
      todo;
  let rs =
    Nvml_exec.Pool.map ctx.pool
      (fun c ->
        Harness.run_benchmark c.structure ~mode:c.mode ~cfg:c.cfg
          ~persist:c.persist c.spec)
      todo
  in
  List.iter2 (Hashtbl.replace ctx.memo) todo rs;
  List.map
    (fun c ->
      Hashtbl.replace ctx.out.read c ();
      Hashtbl.find ctx.memo c)
    cells

let result ctx c = List.hd (results ctx [ c ])

(* Run the cells [mk x y] of [xs] x [ys] (x-major) in one batch, and
   read them back with the returned lookup. *)
let grid ctx mk xs ys =
  ignore (results ctx (List.concat_map (fun x -> List.map (mk x) ys) xs));
  fun x y -> result ctx (mk x y)

(* The default cells of [names] x [modes]. *)
let matrix ctx = grid ctx (cell ctx)

let norm_cycles m name mode =
  float_of_int (m name mode).Harness.run.Cpu.cycles
  /. float_of_int (m name Runtime.Volatile).Harness.run.Cpu.cycles

(* Run independent simulation cells that are not harness cells through
   the worker pool, results in submission order. *)
let par_map ctx f xs = Nvml_exec.Pool.map ctx.pool f xs

(* Merge the per-op recorders in [oplats], emit the aggregate as
   <prefix>.latency.{p50,p90,p99,p999,max} plus the per-component
   attribution of the retained tail (fractions of the tail's cycles),
   and feed the aggregate into the experiment's latency tally of the
   --bench document. *)
let latency_metrics ctx prefix oplats =
  let agg = Oplat.create ~cell:prefix () in
  List.iter (fun o -> Oplat.merge_into ~dst:agg o) oplats;
  if Oplat.count agg > 0 then begin
    let s = Latency.summary (Oplat.latency agg) in
    let metric name v = metric ctx (prefix ^ name) v in
    metric ".latency.p50" (float_of_int s.Latency.p50);
    metric ".latency.p90" (float_of_int s.Latency.p90);
    metric ".latency.p99" (float_of_int s.Latency.p99);
    metric ".latency.p999" (float_of_int s.Latency.p999);
    metric ".latency.max" (float_of_int s.Latency.max);
    let tail = Oplat.tail_components agg in
    let tot = float_of_int (max 1 (Oplat.components_total tail)) in
    let frac n = float_of_int n /. tot in
    metric ".latency.tail.base" (frac tail.Oplat.base);
    metric ".latency.tail.check" (frac tail.Oplat.check);
    metric ".latency.tail.translation" (frac tail.Oplat.translation);
    metric ".latency.tail.stall" (frac tail.Oplat.stall);
    metric ".latency.tail.media" (frac tail.Oplat.media);
    Oplat.merge_into ~dst:ctx.out.latency agg
  end

let result_oplats rs = List.map (fun (r : Harness.result) -> r.Harness.oplat) rs

(* The per-benchmark latency table rendered by experiments that show
   their tail distributions inline. *)
let latency_table rows =
  subheading "per-op latency (cycles)";
  table
    ~header:[ "Benchmark"; "ops"; "p50"; "p90"; "p99"; "p999"; "max" ]
    (List.map
       (fun (label, (o : Oplat.t)) ->
         let s = Latency.summary (Oplat.latency o) in
         [
           label; with_commas s.Latency.count; with_commas s.Latency.p50;
           with_commas s.Latency.p90; with_commas s.Latency.p99;
           with_commas s.Latency.p999; with_commas s.Latency.max;
         ])
       rows)

(* --- Table II ------------------------------------------------------------ *)

let table2 _ctx =
  heading "Table II: storage cost of the hardware structures (45 nm)";
  let structures = Hw_cost.of_config Config.default in
  table
    ~header:[ "Structure"; "Entry (B)"; "Entries"; "Total (B)"; "Area (mm^2)" ]
    (List.map
       (fun s ->
         [
           s.Hw_cost.name;
           int_ s.Hw_cost.entry_bytes;
           int_ s.Hw_cost.num_entries;
           int_ (Hw_cost.total_bytes s);
           Printf.sprintf "%.4f" (Hw_cost.area_mm2 s);
         ])
       structures);
  Printf.printf
    "Total size: %s bytes; total area: %.4f mm^2 (%.3f%% of an 81 mm^2 die)\n"
    (with_commas (Hw_cost.total_bytes_all structures))
    (Hw_cost.total_area_all structures)
    (100. *. Hw_cost.fraction_of_die structures);
  Printf.printf "Paper: 1,280 bytes total, 0.0479 mm^2, 0.059%% of die.\n"

(* --- Table III ------------------------------------------------------------ *)

let table3 _ctx =
  heading "Table III: benchmark data structures";
  let module S = Nvml_structures in
  let row name node_size description = [ name; int_ node_size; description ] in
  table
    ~header:[ "Benchmark"; "Node (B)"; "Implementation" ]
    (row S.Linked_list.name S.Linked_list.node_size S.Linked_list.description
    :: List.map
         (fun (module M : S.Intf.ORDERED_MAP) ->
           row M.name M.node_size M.description)
         S.Registry.maps);
  Printf.printf
    "(The paper instantiates these from Boost, 22,206 lines of library code;\n\
    \ here each is implemented from scratch over the simulated-memory runtime.)\n"

(* --- Table IV -------------------------------------------------------------- *)

let table4 _ctx =
  heading "Table IV: simulator parameters";
  table ~header:[ "Component"; "Parameter" ]
    (List.map (fun (k, v) -> [ k; v ]) (Config.rows Config.default))

(* --- Table V ---------------------------------------------------------------- *)

let table5 ctx =
  heading "Table V: dynamic checks and conversions (SW version)";
  let rs = results ctx (List.map (fun n -> cell ctx n Runtime.Sw) benchmarks) in
  List.iter2
    (fun name (r : Harness.result) ->
      metric ctx
        (Printf.sprintf "table5.dynamic_checks.%s" name)
        (float_of_int r.Harness.checks.Harness.dynamic_checks))
    benchmarks rs;
  table
    ~header:[ "Benchmark"; "dynamic checks"; "abs. to rel."; "rel. to abs." ]
    (List.map2
       (fun name (r : Harness.result) ->
         [
           name;
           with_commas r.Harness.checks.Harness.dynamic_checks;
           with_commas r.Harness.checks.Harness.abs_to_rel;
           with_commas r.Harness.checks.Harness.rel_to_abs;
         ])
       benchmarks rs);
  latency_table (List.combine benchmarks (result_oplats rs));
  latency_metrics ctx "table5.sw" (result_oplats rs);
  Printf.printf
    "Paper magnitudes (100k ops): LL 8.2M, Hash 2.6M, RB 14.5M, Splay 25.6M,\n\
     AVL 14.4M, SG 18.1M dynamic checks.\n"

(* --- Figure 11 --------------------------------------------------------------- *)

let fig11 ctx =
  heading
    "Figure 11: execution time normalized to the volatile version (lower is \
     better)";
  let m =
    matrix ctx benchmarks
      [ Runtime.Explicit; Runtime.Volatile; Runtime.Sw; Runtime.Hw ]
  in
  let rows =
    List.map
      (fun name ->
        [
          name;
          f3 (norm_cycles m name Runtime.Explicit);
          f3 (norm_cycles m name Runtime.Sw);
          f3 (norm_cycles m name Runtime.Hw);
        ])
      benchmarks
  in
  table ~header:[ "Benchmark"; "Explicit"; "SW"; "HW" ] rows;
  let gm mode = geomean (List.map (fun n -> norm_cycles m n mode) benchmarks) in
  metric ctx "fig11.geomean.explicit" (gm Runtime.Explicit);
  metric ctx "fig11.geomean.sw" (gm Runtime.Sw);
  metric ctx "fig11.geomean.hw" (gm Runtime.Hw);
  latency_metrics ctx "fig11.hw"
    (result_oplats (List.map (fun n -> m n Runtime.Hw) benchmarks));
  Printf.printf
    "Geomean: Explicit %.3f, SW %.3f, HW %.3f; HW speedup over Explicit %.2fx\n"
    (gm Runtime.Explicit) (gm Runtime.Sw) (gm Runtime.Hw)
    (gm Runtime.Explicit /. gm Runtime.Hw);
  Printf.printf
    "Paper shape: SW ~2.75x average; HW <= 1.12x; HW beats Explicit by ~1.33x.\n"

(* --- Figure 12 ---------------------------------------------------------------- *)

let s_fig12 = Site.make "fig12.harness"

let fig12 ctx =
  heading
    "Figure 12: translation reuse — one loaded pointer, many field accesses";
  let run mode =
    let rt = Runtime.create ~mode () in
    let pool = Runtime.create_pool rt ~name:"p" ~size:(1 lsl 20) in
    let a = Runtime.alloc_in rt (Runtime.Pool_region pool) 64 in
    let b = Runtime.alloc_in rt (Runtime.Pool_region pool) 64 in
    Runtime.store_ptr rt ~site:s_fig12 a ~off:0 b;
    let s0 = Runtime.snapshot rt in
    (* codelet: q = a->ptr; then 6 field reads through q *)
    let q = Runtime.load_ptr rt ~site:s_fig12 a ~off:0 in
    for i = 0 to 5 do
      ignore (Runtime.load_word rt ~site:s_fig12 q ~off:(8 * i))
    done;
    let s1 = Runtime.snapshot rt in
    (Cpu.diff_snapshot s1 s0).Cpu.polb_accesses
  in
  table
    ~header:[ "Version"; "address translations for 1 pointer + 6 reads" ]
    [
      [ "HW (user-transparent)"; int_ (run Runtime.Hw) ];
      [ "Explicit"; int_ (run Runtime.Explicit) ];
    ];
  ops_add ctx 14 (* 2 versions x (1 pointer load + 6 field reads) *);
  Printf.printf
    "The HW version converts once when the pointer is materialized and reuses\n\
     the virtual address; the explicit version translates at every access.\n"

(* --- Figure 13 ----------------------------------------------------------------- *)

let fig13 ctx =
  heading
    "Figure 13: branch mispredictions normalized to the volatile version";
  let m =
    matrix ctx benchmarks
      [ Runtime.Sw; Runtime.Volatile; Runtime.Hw; Runtime.Explicit ]
  in
  let mp name mode =
    let r = m name mode in
    let v = m name Runtime.Volatile in
    float_of_int r.Harness.run.Cpu.branch_mispredicts
    /. float_of_int (max 1 v.Harness.run.Cpu.branch_mispredicts)
  in
  table
    ~header:[ "Benchmark"; "SW"; "HW"; "Explicit" ]
    (List.map
       (fun name ->
         [
           name;
           f2 (mp name Runtime.Sw);
           f2 (mp name Runtime.Hw);
           f2 (mp name Runtime.Explicit);
         ])
       benchmarks);
  Printf.printf
    "Paper shape: SW mispredicts 6.7x - 2944x more than HW; HW ~= volatile.\n"

(* --- Figure 14 ------------------------------------------------------------------ *)

let fig14 ctx =
  heading
    "Figure 14: HW execution time vs VALB/VAW latency, normalized to Explicit";
  let m = matrix ctx benchmarks [ Runtime.Explicit ] in
  let latencies = [ 3; 10; 25; 50 ] in
  let header = "Benchmark" :: List.map (fun l -> Printf.sprintf "%dcyc" l) latencies in
  let hw =
    grid ctx
      (fun name lat ->
        cell ctx
          ~cfg:
            { Config.default with Config.valb_latency = lat;
              vatb_node_latency = lat }
          name Runtime.Hw)
      benchmarks latencies
  in
  let rows =
    List.map
      (fun name ->
        let explicit =
          float_of_int (m name Runtime.Explicit).Harness.run.Cpu.cycles
        in
        name
        :: List.map
             (fun lat ->
               f3 (float_of_int (hw name lat).Harness.run.Cpu.cycles /. explicit))
             latencies)
      benchmarks
  in
  table ~header rows;
  latency_metrics ctx "fig14.hw"
    (result_oplats
       (List.concat_map (fun n -> List.map (hw n) latencies) benchmarks));
  Printf.printf
    "Paper shape: even 50-cycle VALB/VAW latency costs < 10%% — storeP is rare\n\
     and its translations are hidden in the storeP unit.\n"

(* --- Figure 15 ------------------------------------------------------------------- *)

let fig15 ctx =
  heading
    "Figure 15: fraction of memory accesses using the translation hardware (HW)";
  let hw = matrix ctx benchmarks [ Runtime.Hw ] in
  table
    ~header:[ "Benchmark"; "storeP"; "VALB/VAW"; "POLB/POW" ]
    (List.map
       (fun name ->
         let s = (hw name Runtime.Hw).Harness.run in
         let m = float_of_int (max 1 s.Cpu.mem_accesses) in
         [
           name;
           pct (float_of_int s.Cpu.storeps /. m);
           pct (float_of_int s.Cpu.valb_accesses /. m);
           pct (float_of_int s.Cpu.polb_accesses /. m);
         ])
       benchmarks);
  Printf.printf
    "Paper: 0.38%% of accesses are storeP, 0.22%% touch the VALB/VAW, 12.6%%\n\
     touch the POLB/POW.\n"

(* --- KNN case study ------------------------------------------------------------- *)

let knn ctx =
  heading "Case study (Sec. VII-E): KNN over iris, all matrices persisted but input";
  let _, vol = Knn.case_study ~mode:Runtime.Volatile ~k:3 in
  let rows =
    List.map
      (fun mode ->
        let acc, s = Knn.case_study ~mode ~k:3 in
        let m = float_of_int (max 1 s.Cpu.mem_accesses) in
        [
          Runtime.mode_name mode;
          f3 (float_of_int s.Cpu.cycles /. float_of_int vol.Cpu.cycles);
          pct (float_of_int s.Cpu.polb_accesses /. m);
          Printf.sprintf "%.1f%%" (100. *. acc);
        ])
      [ Runtime.Volatile; Runtime.Hw; Runtime.Sw; Runtime.Explicit ]
  in
  (* 5 KNN kernel runs (volatile reference + 4 modes), one classified
     sample per op *)
  ops_add ctx (5 * Iris.total_samples);
  table ~header:[ "Version"; "Norm. time"; "translating accesses"; "accuracy" ] rows;
  Printf.printf "Paper: HW marginal overhead (0.22%% of loads translate);\n";
  Printf.printf "       SW sees 7.56x slowdown on this kernel.\n";
  subheading "Productivity (lines/sites to change for NVM)";
  let count_sites prefix =
    List.length (List.filter (fun s -> not (Site.is_static s)) (Site.with_prefix prefix))
  in
  let matrix_sites = count_sites "matrix." in
  let knn_sites = count_sites "knn." in
  table
    ~header:[ "Approach"; "This repro"; "Paper (KNN/MLPack)" ]
    [
      [ "user-transparent: alloc lines changed"; "4 (matrix placements)"; "7 lines" ];
      [
        "explicit: pointer-op sites to rewrite";
        Printf.sprintf "%d sites (matrix %d + knn %d) per placement combo"
          (matrix_sites + knn_sites) matrix_sites knn_sites;
        "863 lines, >10 objects, 32 functions";
      ];
      [ "explicit: DRAM/NVM placement combos"; "16 (4 matrices)"; "16 versions" ];
    ]

(* --- Fig. 9: generated code -------------------------------------------------------- *)

let fig9_source =
  {|
struct Node { int value; struct Node* next; };
void Append(struct Node* p, struct Node* n) {
  if (p != n) {
    p->next = n;
  }
  return;
}
int main() {
  struct Node* a = (struct Node*) malloc(sizeof(struct Node));
  struct Node* b = (struct Node*) malloc(sizeof(struct Node));
  a->next = NULL;
  Append(a, b);
  return 0;
}
|}

let fig9 _ctx =
  heading "Figure 9: compiler-generated code for the linked-list Append";
  let program = Nvml_minic.Parser.parse_program fig9_source in
  subheading "input source";
  print_endline (String.trim fig9_source);
  subheading "after inference + check insertion (SW version)";
  print_endline (Nvml_comp.Codegen.generated_source program);
  let r = Inference.infer program in
  Printf.printf
    "\n%d of %d pointer-op sites kept their dynamic checks (the operands\n\
     reaching Append are opaque parameters, exactly as in the paper).\n"
    r.Inference.checked_sites r.Inference.total_sites

(* --- soundness (Sec. VII-B) ------------------------------------------------------ *)

let soundness ctx =
  heading "Soundness (Sec. VII-B): corpus under native vs pmalloc-everything heaps";
  let results = List.map (fun (name, p) -> (name, Soundness.check p)) Corpus.all in
  let runs = List.concat_map snd results in
  let total = List.length runs and passed = List.length (List.filter Fun.id runs) in
  table
    ~header:("Program" :: List.map (fun c -> c.Soundness.label) Soundness.configs)
    (List.map
       (fun (name, oks) ->
         name :: List.map (fun ok -> if ok then "ok" else "FAIL") oks)
       results);
  (* one op per corpus execution: the checks plus one reference run
     per program *)
  ops_add ctx (total + List.length Corpus.all);
  Printf.printf "%d/%d runs match the native output.\n" passed total;
  Printf.printf
    "(Paper: all 267 application + 1518 regression tests of the LLVM\n\
    \ test-suite pass under the SW implementation.)\n"

(* --- compiler inference (Sec. V-B) ------------------------------------------------ *)

let compiler _ctx =
  heading "Compiler pass: pointer-property inference, checks remaining per program";
  let stats =
    List.map
      (fun (name, program) ->
        let r = Inference.infer program in
        (name, r.Inference.total_sites, r.Inference.checked_sites,
         Inference.fraction_checked r))
      Corpus.all
  in
  table
    ~header:[ "Program"; "pointer-op sites"; "checked"; "% remaining" ]
    (List.map
       (fun (name, total, checked, frac) ->
         [ name; int_ total; int_ checked; pct frac ])
       stats);
  let avg =
    List.fold_left (fun acc (_, _, _, f) -> acc +. f) 0.0 stats
    /. float_of_int (List.length stats)
  in
  let total = List.fold_left (fun acc (_, t, _, _) -> acc + t) 0 stats in
  let checked = List.fold_left (fun acc (_, _, c, _) -> acc + c) 0 stats in
  Printf.printf
    "Average checks remaining: %.1f%% per program, %.1f%% site-weighted\n\
     (paper: ~42%% on Boost; traversal-shaped programs here land at 32-83%%).\n"
    (100. *. avg)
    (100. *. float_of_int checked /. float_of_int total)

(* --- productivity table ------------------------------------------------------------ *)

let productivity _ctx =
  heading "Productivity: migration cost, transparent vs explicit";
  let prefixes =
    [ ("LL", "ll."); ("Hash", "hash."); ("RB", "rb."); ("Splay", "splay.");
      ("AVL", "avl."); ("SG", "sg."); ("Matrix+KNN", "matrix.") ]
  in
  table
    ~header:
      [ "Library"; "explicit: pointer-op sites to rewrite";
        "transparent: lines changed" ]
    (List.map
       (fun (name, prefix) ->
         let sites = List.length (Site.with_prefix prefix) in
         [ name; int_ sites; "1 (allocator call)" ])
       prefixes);
  Printf.printf
    "Reference points from the paper: porting Redis to PMDK changed 4,348\n\
     lines (7.6%% of the codebase); migrating rocksDB's index added 4,117\n\
     lines; the explicit KNN port changes 863 lines.\n"

(* --- ablations ----------------------------------------------------------------------- *)

(* Quantify the design choices DESIGN.md calls out: (1) the
   translation-reuse register model behind the HW-vs-Explicit win and
   the Fig. 14 flatness; (2) predictor capacity, which governs how much
   of the SW slowdown is misprediction. *)
let ablation ctx =
  heading "Ablation 1: the keep-relative/translation-reuse optimization (HW)";
  let bench_set = [ "RB"; "Splay"; "Hash" ] in
  let m = matrix ctx bench_set [ Runtime.Volatile; Runtime.Hw ] in
  let no_reuse = { Config.default with Config.keep_relative_opt = false } in
  let offs =
    results ctx
      (List.map (fun name -> cell ctx ~cfg:no_reuse name Runtime.Hw) bench_set)
  in
  let rows =
    List.map2
      (fun name (off : Harness.result) ->
        let volatile =
          float_of_int (m name Runtime.Volatile).Harness.run.Cpu.cycles
        in
        let on = m name Runtime.Hw in
        let valb_frac (r : Harness.result) =
          float_of_int r.Harness.run.Cpu.valb_accesses
          /. float_of_int (max 1 r.Harness.run.Cpu.mem_accesses)
        in
        [
          name;
          f3 (float_of_int on.Harness.run.Cpu.cycles /. volatile);
          f3 (float_of_int off.Harness.run.Cpu.cycles /. volatile);
          pct (valb_frac on);
          pct (valb_frac off);
          int_ off.Harness.run.Cpu.storep_stall_cycles;
        ])
      bench_set offs
  in
  table
    ~header:
      [ "Benchmark"; "HW (reuse on)"; "HW (reuse off)"; "VALB on"; "VALB off";
        "FSM stalls (off)" ]
    rows;
  Printf.printf
    "Reuse eliminates nearly all va2ra traffic; without it the VALB absorbs\n\
     every store-back, but the 32-entry storeP FSM hides the latency — the\n\
     translations cost bandwidth, not time (hence Fig. 14's flatness).\n";
  subheading "VALB/VAW latency sensitivity with reuse disabled (Splay)";
  let explicit =
    float_of_int
      (result ctx (cell ctx "Splay" Runtime.Explicit)).Harness.run.Cpu.cycles
  in
  let row =
    "Splay(no reuse)"
    :: List.map
         (fun (r : Harness.result) ->
           f3 (float_of_int r.Harness.run.Cpu.cycles /. explicit))
         (results ctx
            (List.map
               (fun lat ->
                 cell ctx
                   ~cfg:
                     { no_reuse with Config.valb_latency = lat;
                       vatb_node_latency = lat }
                   "Splay" Runtime.Hw)
               [ 3; 10; 25; 50 ]))
  in
  table ~header:[ "Benchmark"; "3cyc"; "10cyc"; "25cyc"; "50cyc" ] [ row ];
  heading "Ablation 2: branch-predictor capacity vs the SW slowdown (RB)";
  let volatile =
    float_of_int (m "RB" Runtime.Volatile).Harness.run.Cpu.cycles
  in
  let predictors = [ 6; 8; 10; 12; 14 ] in
  let rows =
    List.map2
      (fun bits (r : Harness.result) ->
        [
          Printf.sprintf "%d entries" (1 lsl bits);
          f3 (float_of_int r.Harness.run.Cpu.cycles /. volatile);
          with_commas r.Harness.run.Cpu.branch_mispredicts;
        ])
      predictors
      (results ctx
         (List.map
            (fun bits ->
              cell ctx
                ~cfg:
                  { Config.default with Config.bp_table_bits = bits;
                    bp_history_bits = min bits 12 }
                "RB" Runtime.Sw)
            predictors))
  in
  table ~header:[ "Predictor"; "SW norm. time"; "mispredicts" ] rows

(* --- Table VI: relocation overhead ----------------------------------------------------- *)

(* Table VI contrasts designs by what object relocation costs: managed
   runtimes (Espresso, AutoPersist, go-pmem) must trace the heap and
   rewrite every pointer when a pool maps at a new address; position-
   independent pointers relocate for free.  Measured here on a real
   structure: re-open a 10k-node RB tree at a new base under our scheme
   (zero pointer updates), then execute the pointer-tracing rewrite the
   managed designs would need, in the same timing model. *)
let s_rel = Site.make "bench.relocation"

let table6 ctx =
  heading "Table VI (relocation): position-independent pointers vs tracing";
  let keys = 10_000 in
  let rt = Runtime.create ~mode:Runtime.Hw () in
  let pool = Runtime.create_pool rt ~name:"r" ~size:(1 lsl 22) in
  let module Rb = Nvml_structures.Rb_tree in
  let tree = Rb.create rt (Runtime.Pool_region pool) in
  for i = 1 to keys do
    Rb.insert tree ~key:(Int64.of_int i) ~value:(Int64.of_int i)
  done;
  Runtime.set_root rt ~site:s_rel ~pool (Rb.header tree);
  (* Our scheme: crash, re-open at a new base — no pointer touched. *)
  Runtime.crash_and_restart rt;
  let s0 = Runtime.snapshot rt in
  ignore (Runtime.open_pool rt "r");
  let tree = Rb.attach rt (Runtime.get_root rt ~site:s_rel ~pool) in
  let reopen = Cpu.diff_snapshot (Runtime.snapshot rt) s0 in
  assert (Rb.find tree 5000L <> None);
  (* Tracing scheme: what Espresso-class designs execute on relocation —
     visit every object and rewrite each embedded pointer. *)
  let s1 = Runtime.snapshot rt in
  let updates = ref 0 in
  let rec retrace node =
    if not (Runtime.ptr_is_null rt ~site:s_rel node) then begin
      List.iter
        (fun off ->
          let p = Runtime.load_ptr rt ~site:s_rel node ~off in
          Runtime.instr rt 2 (* old-base test + rebase add *);
          Runtime.store_ptr rt ~site:s_rel node ~off p;
          incr updates)
        [ 16; 24; 32 ] (* left, right, parent *);
      retrace (Runtime.load_ptr rt ~site:s_rel node ~off:16);
      retrace (Runtime.load_ptr rt ~site:s_rel node ~off:24)
    end
  in
  retrace (Runtime.load_ptr rt ~site:s_rel (Rb.header tree) ~off:0);
  let trace = Cpu.diff_snapshot (Runtime.snapshot rt) s1 in
  (* tree population, the re-open, and one tracing rewrite per pointer *)
  ops_add ctx (keys + 1 + !updates);
  table
    ~header:[ "scheme"; "pointer updates"; "cycles" ]
    [
      [ "position-independent (this work)"; "0"; with_commas reopen.Cpu.cycles ];
      [
        "update-all-pointers tracing (Espresso/AutoPersist class)";
        with_commas !updates;
        with_commas trace.Cpu.cycles;
      ];
    ];
  Printf.printf
    "Re-opening the 10k-key tree costs %s cycles under relative pointers;\n\
     a tracing design rewrites %s pointers for %s cycles (%.0fx) — Table\n\
     VI's Low-vs-High relocation column, measured.\n"
    (with_commas reopen.Cpu.cycles) (with_commas !updates)
    (with_commas trace.Cpu.cycles)
    (float_of_int trace.Cpu.cycles /. float_of_int (max 1 reopen.Cpu.cycles))

(* --- extended structure set (extension) ----------------------------------------------- *)

(* Fig. 11 repeated over containers beyond Table III: a skip list, a
   B-tree map and a radix tree — further legacy libraries running
   unchanged on the same runtime. *)
let extended ctx =
  heading
    "Extension: execution time normalized to volatile, extended structures";
  let names =
    List.map
      (fun (module M : Nvml_structures.Intf.ORDERED_MAP) -> M.name)
      Nvml_structures.Registry.extended_maps
  in
  let m =
    matrix ctx names
      [ Runtime.Explicit; Runtime.Volatile; Runtime.Sw; Runtime.Hw ]
  in
  let rows =
    List.map
      (fun name ->
        [
          name;
          f3 (norm_cycles m name Runtime.Explicit);
          f3 (norm_cycles m name Runtime.Sw);
          f3 (norm_cycles m name Runtime.Hw);
        ])
      names
  in
  table ~header:[ "Structure"; "Explicit"; "SW"; "HW" ] rows;
  let hw = result_oplats (List.map (fun n -> m n Runtime.Hw) names) in
  latency_table (List.combine names hw);
  latency_metrics ctx "extended.hw" hw;
  Printf.printf
    "The same ranking as Table III's set: SW-only slow, HW near-native,\n\
     user-transparent HW ahead of explicit handles.\n"

(* --- multi-pool scaling (extension) -------------------------------------------------- *)

(* The paper's workloads live in one pool, so the POLB never misses.
   This extension fixes a 64-pool working set (nodes assigned to pools
   by hash, so the memory layout and locality are identical across
   configurations) and sweeps only the POLB capacity, isolating the
   translation-capacity effect. *)
let s_mp = Site.make "bench.multipool"

let multipool ctx =
  heading
    "Extension: POLB capacity under a 64-pool working set (HW, 4096-node \
     chain)";
  let nodes = 4096 and npools = 64 in
  let pool_of_node i =
    (* splitmix-style hash so pool references interleave irregularly *)
    let h = (i * 0x9E3779B9) lxor (i lsr 7) in
    (h lsr 4) land (npools - 1)
  in
  let run polb_entries =
    let cfg = { Config.default with Config.polb_entries } in
    let rt = Runtime.create ~cfg ~mode:Runtime.Hw () in
    let pools =
      Array.init npools (fun i ->
          Runtime.create_pool rt ~name:(Fmt.str "p%d" i) ~size:(1 lsl 18))
    in
    let head = ref Ptr.null in
    for i = nodes - 1 downto 0 do
      let node =
        Runtime.alloc rt ~pool:pools.(pool_of_node i) ~persistent:true 16
      in
      Runtime.store_ptr rt ~site:s_mp node ~off:0 !head;
      Runtime.store_word rt ~site:s_mp node ~off:8 (Int64.of_int i);
      head := node
    done;
    let s0 = Runtime.snapshot rt in
    for _ = 1 to 10 do
      let node = ref !head in
      while not (Runtime.ptr_is_null rt ~site:s_mp !node) do
        ignore (Runtime.load_word rt ~site:s_mp !node ~off:8);
        node := Runtime.load_ptr rt ~site:s_mp !node ~off:0
      done
    done;
    Cpu.diff_snapshot (Runtime.snapshot rt) s0
  in
  let base = ref 1 in
  let rows =
    par_map ctx (fun entries -> (entries, run entries)) [ 128; 64; 32; 16; 8; 4 ]
  in
  List.iter (fun (entries, s) -> if entries = 128 then base := s.Cpu.cycles) rows;
  table
    ~header:[ "POLB entries"; "norm. time"; "POLB miss rate"; "POW walks" ]
    (List.map
       (fun (entries, s) ->
         [
           int_ entries;
           f3 (float_of_int s.Cpu.cycles /. float_of_int !base);
           pct
             (float_of_int s.Cpu.polb_misses
             /. float_of_int (max 1 s.Cpu.polb_accesses));
           with_commas s.Cpu.pow_walks;
         ])
       (List.rev rows));
  (* 6 POLB configurations x 10 traversals x one op per node *)
  ops_add ctx (6 * 10 * nodes);
  Printf.printf
    "Below the pool working set, POLB misses turn into POW walks — the\n\
     capacity cliff the paper's single-pool workloads never approach (its\n\
     32 entries are comfortable for realistic pool counts).\n"

(* --- transaction overhead (extension) ------------------------------------------------- *)

let s_tx = Site.make ~static:true "bench.txn"

let txn_overhead ctx =
  heading
    "Extension: undo-log transaction overhead (Sec. VI crash consistency)";
  let module Txn = Nvml_runtime.Txn in
  let cells = 64 and rounds = 2000 in
  let run ~transactional =
    let rt = Runtime.create ~mode:Runtime.Hw () in
    let pool = Runtime.create_pool rt ~name:"t" ~size:(1 lsl 21) in
    let arr = Runtime.alloc rt ~pool ~persistent:true (cells * 8) in
    let txn = Txn.create rt ~pool () in
    let cpu = Runtime.cpu rt in
    let ol =
      Oplat.create
        ~cell:(if transactional then "txn/Hw" else "plain/Hw")
        ()
    in
    let s0 = Runtime.snapshot rt in
    for r = 1 to rounds do
      Oplat.op_begin ol cpu;
      if transactional then begin
        Txn.begin_ txn;
        for i = 0 to 3 do
          Txn.store_word txn ~site:s_tx arr
            ~off:(8 * ((r + i) mod cells))
            (Int64.of_int r)
        done;
        Txn.commit txn
      end
      else
        for i = 0 to 3 do
          Runtime.store_word rt ~site:s_tx arr
            ~off:(8 * ((r + i) mod cells))
            (Int64.of_int r)
        done;
      Oplat.op_end ol cpu (if transactional then "txn" else "stores")
    done;
    ((Cpu.diff_snapshot (Runtime.snapshot rt) s0).Cpu.cycles, ol)
  in
  let plain, ol_plain = run ~transactional:false in
  let tx, ol_tx = run ~transactional:true in
  ops_add ctx (2 * rounds);
  latency_metrics ctx "txn.plain" [ ol_plain ];
  latency_metrics ctx "txn.txn" [ ol_tx ];
  table
    ~header:[ "version"; "cycles"; "vs plain" ]
    [
      [ "plain stores"; with_commas plain; "1.000" ];
      [ "transactional stores"; with_commas tx;
        f3 (float_of_int tx /. float_of_int plain) ];
    ];
  Printf.printf
    "Each transactional store adds one log append (read old value + two\n\
     stores into the in-pool undo log) — the cost a compiler would insert\n\
     around library calls enclosed in persistent transactions.\n"

(* --- NVM latency and working-set sweeps (extension) ----------------------------------- *)

(* Two sensitivity studies the paper's evaluation fixes as constants:
   how the HW scheme's overhead over a volatile run scales with the
   NVM/DRAM latency ratio, and with the working-set size relative to
   the cache hierarchy. *)
let sweep ctx =
  heading "Extension: HW overhead vs NVM latency (RB, paper workload)";
  (* Each (latency x mode) run is an independent cell; the row pairs up
     the volatile and HW results afterwards. *)
  let latencies = [ 120; 240; 480; 960 ] in
  let rb =
    grid ctx
      (fun nvm_latency ->
        cell ctx ~cfg:{ Config.default with Config.nvm_latency } "RB")
      latencies
      [ Runtime.Volatile; Runtime.Hw ]
  in
  let rows =
    List.map
      (fun nvm_latency ->
        let vol = rb nvm_latency Runtime.Volatile in
        let hw = rb nvm_latency Runtime.Hw in
        [
          Printf.sprintf "%d cycles (%.1fx DRAM)" nvm_latency
            (float_of_int nvm_latency /. float_of_int Config.default.Config.dram_latency);
          f3
            (float_of_int hw.Harness.run.Cpu.cycles
            /. float_of_int vol.Harness.run.Cpu.cycles);
        ])
      latencies
  in
  table ~header:[ "NVM latency"; "HW / volatile" ] rows;
  let hws = List.map (fun l -> rb l Runtime.Hw) latencies in
  List.iter2
    (fun nvm_latency (hw : Harness.result) ->
      let s = Latency.summary (Oplat.latency hw.Harness.oplat) in
      metric ctx
        (Printf.sprintf "sweep.hw.nvm%d.latency.p99" nvm_latency)
        (float_of_int s.Latency.p99))
    latencies hws;
  latency_metrics ctx "sweep.hw" (result_oplats hws);
  Printf.printf
    "At 120 cycles (DRAM-equal) the residue is pure translation cost; the\n\
     rest is the NVM medium itself, which every persistent design pays.\n";
  heading "Extension: HW overhead vs working-set size (RB)";
  let sizes = [ 1_000; 10_000; 50_000 ] in
  (* The sizes are absolute, so --quick shrinks the ops per record. *)
  let ops_per_record = if ctx.quick then 1 else 10 in
  let rb =
    grid ctx
      (fun records ->
        cell ctx
          ~spec:
            { ctx.spec with Workload.record_count = records;
              operation_count = records * ops_per_record }
          "RB")
      sizes
      [ Runtime.Volatile; Runtime.Hw ]
  in
  let rows =
    List.map
      (fun records ->
        let vol = rb records Runtime.Volatile in
        let hw = rb records Runtime.Hw in
        [
          with_commas records;
          f3
            (float_of_int hw.Harness.run.Cpu.cycles
            /. float_of_int vol.Harness.run.Cpu.cycles);
          pct hw.Harness.run.Cpu.l3_hit_rate;
        ])
      sizes
  in
  table ~header:[ "records"; "HW / volatile"; "L3 hit rate" ] rows;
  Printf.printf
    "Past the 2 MiB L3, more accesses reach the NVM medium and the 2x miss\n\
     latency shows — the overhead is the memory, not the pointer scheme.\n"

(* --- bechamel micro-benchmarks ------------------------------------------------------ *)

let s_micro = Site.make ~static:true "micro.load_ptr"

let micro ctx =
  heading "Micro-benchmarks (Bechamel): core primitives";
  let open Bechamel in
  let mem = Nvml_simmem.Mem.create () in
  let pm = Nvml_pool.Pmop.create mem in
  let pool = Nvml_pool.Pmop.create_pool pm ~name:"m" ~size:(1 lsl 20) in
  let x = Xlate.make (Nvml_pool.Pmop.provider pm) in
  let rel = Nvml_pool.Pmop.pmalloc pm ~pool 64 in
  let va = Xlate.ra2va x rel in
  let cache = Nvml_arch.Cache.create ~sets:64 ~ways:8 ~index_shift:6 in
  let bp = Nvml_arch.Branch_predictor.create ~table_bits:12 ~history_bits:12 in
  let btree = Nvml_arch.Range_btree.create () in
  for i = 0 to 63 do
    Nvml_arch.Range_btree.insert btree
      ~base:(Int64.of_int (i * 65536)) ~size:32768L ~pool:i
  done;
  let counter = ref 0 in
  let lrec = Nvml_telemetry.Latency.create () in
  (* A relaxed engine whose first epoch buffered 100k words (196 frames
     of 512), then drained; each drain row re-dirties one line. *)
  let module Physmem = Nvml_simmem.Physmem in
  let module Persist = Nvml_runtime.Persist in
  let relaxed () =
    let ppm = Physmem.create () in
    (ppm, Persist.create (Persist.Epoch { interval = 8 }) ppm)
  in
  let fast = { Config.default with timing = false } in
  let pcpu = Cpu.create fast mem in
  let drain_pm, drain_p = relaxed () in
  let drain_frames =
    Array.init 196 (fun _ -> Physmem.alloc_frame drain_pm Nvml_simmem.Layout.Nvm)
  in
  Array.iter
    (fun frame ->
      for word_index = 0 to Nvml_simmem.Layout.words_per_page - 1 do
        Physmem.write_word drain_pm ~frame ~word_index 1L
      done)
    drain_frames;
  Persist.drain drain_p ~cpu:pcpu ~cfg:Config.default;
  let note_pm, _note_p = relaxed () in
  let note_frame = Physmem.alloc_frame note_pm Nvml_simmem.Layout.Nvm in
  Physmem.write_word note_pm ~frame:note_frame ~word_index:0 1L;
  (* Data-path rows: 64 backed DRAM frames visited in turn, a translation
     already in the software TLB, and an HW load-pointer over 64 cells
     (twice the keep-relative window, so every load misses it). *)
  let module Layout = Nvml_simmem.Layout in
  let stride_pm = Physmem.create () in
  let stride_first = Physmem.alloc_frame_run stride_pm Layout.Dram 64 in
  let stride_pa i =
    ((stride_first + (i land 63)) lsl Layout.page_shift) lor ((i land 511) lsl 3)
  in
  for i = 0 to 63 do
    Physmem.write_pa stride_pm (stride_pa i) 1L
  done;
  let vs = Nvml_simmem.Mem.vspace mem in
  ignore (Nvml_simmem.Vspace.translate_pa vs va);
  let hw = Runtime.create ~cfg:fast ~mode:Runtime.Hw () in
  let hw_pool = Runtime.create_pool hw ~name:"micro" ~size:(1 lsl 20) in
  let hw_cells = Runtime.alloc_in hw (Runtime.Pool_region hw_pool) (64 * 8) in
  for i = 0 to 63 do
    Runtime.store_ptr hw ~site:s_micro hw_cells ~off:(8 * i)
      (Runtime.alloc_in hw (Runtime.Pool_region hw_pool) 16)
  done;
  let tests =
    Test.make_grouped ~name:"core"
      [
        Test.make ~name:"tag-check (determineY)"
          (Staged.stage (fun () -> Ptr.is_relative rel));
        Test.make ~name:"determineX"
          (Staged.stage (fun () -> Checks.determine_x rel));
        Test.make ~name:"ra2va" (Staged.stage (fun () -> Xlate.ra2va x rel));
        Test.make ~name:"va2ra" (Staged.stage (fun () -> Xlate.va2ra x va));
        Test.make ~name:"pointerAssignment"
          (Staged.stage (fun () -> Checks.pointer_assignment x ~dst:rel ~value:va));
        Test.make ~name:"cache access"
          (Staged.stage (fun () ->
               incr counter;
               Nvml_arch.Cache.access cache (!counter land 0xFFFF)));
        Test.make ~name:"branch predict+update"
          (Staged.stage (fun () ->
               incr counter;
               Nvml_arch.Branch_predictor.branch bp ~pc:64 ~taken:(!counter land 3 = 0)));
        Test.make ~name:"VATB B-tree lookup"
          (Staged.stage (fun () ->
               incr counter;
               Nvml_arch.Range_btree.lookup btree
                 (Int64.of_int ((!counter land 63) * 65536 + 64))));
        (* Checksum guard: the CRC table is built once at module init,
           so per-call cost must stay table-lookup flat — a rebuild
           regression shows up here as a ~100x jump. *)
        Test.make ~name:"crc32 (8-word block)"
          (Staged.stage (fun () ->
               incr counter;
               Nvml_media.Crc.crc32_words
                 [ Int64.of_int !counter; 2L; 3L; 4L; 5L; 6L; 7L; 8L ]));
        Test.make ~name:"crc16_low48 (header word)"
          (Staged.stage (fun () ->
               incr counter;
               Nvml_media.Crc.crc16_low48 (Int64.of_int !counter)));
        (* Latency-recorder guard: [record] must stay a handful of int
           ops into a preallocated slot array — a boxing or resizing
           regression shows up here as a jump plus minor-heap traffic
           in the allocation check below. *)
        Test.make ~name:"latency record (HDR)"
          (Staged.stage (fun () ->
               incr counter;
               Nvml_telemetry.Latency.record lrec !counter));
        (* Persist-buffer guards: a drain costs its dirty lines and a
           note one probe, whatever the buffer held before — a drain
           that walks the epoch's history shows up as a ~1000x jump. *)
        Test.make ~name:"persist drain (1 line, after a 100k-word epoch)"
          (Staged.stage (fun () ->
               incr counter;
               Physmem.write_word drain_pm ~frame:drain_frames.(0)
                 ~word_index:(!counter land 511) 2L;
               Persist.drain drain_p ~cpu:pcpu ~cfg:Config.default));
        Test.make ~name:"persist note (already-dirty word)"
          (Staged.stage (fun () ->
               Physmem.write_word note_pm ~frame:note_frame ~word_index:0 2L));
        (* Data-path guards: a frame access is array indexing whatever
           frame came before, a translation hit two array loads, and a
           window miss a few int ops — a hash-table probe on any of them
           shows up as a several-fold jump. *)
        Test.make ~name:"physmem write_pa (64-frame stride)"
          (Staged.stage (fun () ->
               incr counter;
               Physmem.write_pa stride_pm (stride_pa !counter) 2L));
        Test.make ~name:"physmem read_pa (64-frame stride)"
          (Staged.stage (fun () ->
               incr counter;
               Physmem.read_pa stride_pm (stride_pa !counter)));
        Test.make ~name:"vspace translate_pa (TC hit)"
          (Staged.stage (fun () -> Nvml_simmem.Vspace.translate_pa vs va));
        Test.make ~name:"HW load_ptr (relative, window miss)"
          (Staged.stage (fun () ->
               incr counter;
               Runtime.load_ptr hw ~site:s_micro hw_cells
                 ~off:(8 * (!counter land 63))));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> Printf.sprintf "%.1f" e
        | _ -> "n/a"
      in
      rows := [ name; est ] :: !rows)
    results;
  table ~header:[ "Primitive"; "ns/op" ] (List.sort compare !rows);
  (* Allocation guard for the hot-path recorder: 100k records must not
     touch the minor heap (a few words of slack absorb the boxed
     [Gc.minor_words] reads themselves). *)
  let lrec2 = Nvml_telemetry.Latency.create () in
  let w0 = Gc.minor_words () in
  let n = 100_000 in
  for i = 1 to n do
    Nvml_telemetry.Latency.record lrec2 i
  done;
  let words = Gc.minor_words () -. w0 in
  let per_op = if words < 64.0 then 0.0 else words /. float_of_int n in
  metric ctx "micro.latency_record.minor_words_per_op" per_op;
  Printf.printf "Latency.record allocation: %g minor words/op (must be 0).\n"
    per_op

(* --- telemetry profile ---------------------------------------------------- *)

(* The cross-layer telemetry profile (Section VII observability): run
   one benchmark through [Profile.run] — SW and HW cells in parallel
   through the pool, telemetry force-enabled in a private sink — and
   render the check-site profile, the lookaside hit rates, and the
   cycle attribution by stall source. *)
let profile ctx =
  let benchmark = "RB" in
  heading
    (Printf.sprintf
       "Telemetry profile: check sites, lookasides, cycle attribution (%s)"
       benchmark);
  let p =
    Profile.run ~par:(Nvml_exec.Pool.run ctx.pool) ~benchmark ctx.spec
  in
  ops_add ctx (2 * ctx.spec.Workload.operation_count) (* SW + HW cells *);
  ctx.out.profile <- Some p;
  let dval name = try List.assoc name p.Profile.derived with Not_found -> nan in
  check_site_profile
    (List.map
       (fun r -> (r.Profile.site, r.Profile.static, r.Profile.checks))
       p.Profile.sites);
  let dynamic =
    List.length (List.filter (fun r -> not r.Profile.static) p.Profile.sites)
  in
  Printf.printf
    "%d of %d sites need dynamic checks (%s of sites, %s of executions).\n\
     Paper: ~42%% of a program's pointer-operation sites need checks; the\n\
     compiler experiment measures this repo's analog.\n"
    dynamic
    (List.length p.Profile.sites)
    (pct (dval "check_sites.dynamic_fraction"))
    (pct (dval "check_execs.dynamic_fraction"));
  lookaside_hit_rates
    [
      ("POLB", dval "polb.hit_rate");
      ("VALB", dval "valb.hit_rate");
      ("translation cache", dval "vspace.tc.hit_rate");
    ];
  let attr_counts (a : Cpu.attribution) =
    [ a.Cpu.base; a.Cpu.branch; a.Cpu.tlb; a.Cpu.cache; a.Cpu.mem;
      a.Cpu.xlate; a.Cpu.storep ]
  in
  cycle_attribution
    ~sources:[ "base"; "branch"; "tlb"; "cache"; "mem"; "xlate"; "storeP" ]
    [
      ("SW", attr_counts p.Profile.sw.Harness.attr);
      ("HW", attr_counts p.Profile.hw.Harness.attr);
    ];
  Printf.printf "SW runs %.2fx slower than HW on this benchmark.\n"
    (dval "sw.slowdown");
  List.iter
    (fun (k, v) -> metric ctx (Printf.sprintf "profile.%s.%s" benchmark k) v)
    p.Profile.derived

(* --- crash-point fault injection ------------------------------------------ *)

(* Systematic crash-point sweep over the persistence stack: every chosen
   persistence event (persistent store, storeP retirement, undo-log
   append, allocator metadata write) of each workload is replayed on a
   fresh machine that loses power exactly there; after reboot, pool
   re-open and log recovery the checker validates structural invariants,
   pointer reachability, transaction atomicity and the persistent
   freelist.  Each crash point re-runs the whole workload, so the matrix
   uses its own bounded sizes rather than [ctx.spec]; a quick-scale
   spec shrinks them further. *)
let faultinject ctx =
  let module F = Nvml_faultinject.Faultinject in
  heading "Crash-point fault injection: recovery check matrix";
  let kv_ops = if ctx.quick then 40 else 100 in
  let cases =
    [
      (F.counter_workload ~ops:3 (), { F.default_spec with torn = true });
      ( F.kv_workload ~structure:"RB" ~records:15 ~ops:kv_ops (),
        if ctx.quick then { F.default_spec with every_n = 3 }
        else F.default_spec );
      ( F.kv_workload ~structure:"AVL" ~records:10 ~ops:40 (),
        { F.default_spec with every_n = 5; torn = true } );
      ( F.kv_workload ~structure:"BTree" ~records:10 ~ops:40 (),
        { F.default_spec with every_n = 5; torn = true; seed = 7 } );
    ]
  in
  let reports =
    List.map
      (fun (w, spec) -> F.run ~par:(Nvml_exec.Pool.run ctx.pool) ~spec w)
      cases
  in
  List.iter
    (fun (r : F.report) ->
      (* reference pass + one full workload replay per crash point *)
      ops_add ctx ((List.length r.F.outcomes + 1) * r.F.ops))
    reports;
  table
    ~header:
      [ "workload"; "ops"; "events"; "points"; "clean"; "rolled back";
        "torn"; "violations" ]
    (List.map
       (fun (r : F.report) ->
         [
           r.F.workload; int_ r.F.ops; int_ r.F.events;
           int_ (List.length r.F.outcomes); int_ r.F.clean;
           int_ r.F.rolled_back; int_ r.F.torn_injected;
           int_ (List.length r.F.violations);
         ])
       reports);
  List.iter
    (fun (r : F.report) ->
      metric ctx
        (Printf.sprintf "faultinject.%s.points" r.F.workload)
        (float_of_int (List.length r.F.outcomes));
      metric ctx
        (Printf.sprintf "faultinject.%s.violations" r.F.workload)
        (float_of_int (List.length r.F.violations)))
    reports;
  let violations =
    List.fold_left
      (fun acc (r : F.report) -> acc + List.length r.F.violations)
      0 reports
  in
  if violations = 0 then
    Printf.printf "every crash point recovered to a consistent state.\n"
  else begin
    Printf.printf "%d crash points violated recovery invariants:\n" violations;
    List.iter
      (fun (r : F.report) ->
        if r.F.violations <> [] then Fmt.pr "%a@." F.pp_report r)
      reports
  end

(* --- media scrub --------------------------------------------------------- *)

(* Detection/repair coverage of the integrity stack, scored against the
   injector's own ground truth: each cell predicts every finding the
   scrub must produce from the pure fault-placement function, then runs
   the scrub and diffs.  A non-zero mispredict column is a bug. *)
let scrub ctx =
  let module Media = Nvml_media.Media in
  let module Mediacheck = Nvml_pool.Mediacheck in
  heading "Media errors: scrub detection / repair coverage";
  let seeds = if ctx.quick then 8 else 32 in
  let rows =
    [
      ("5e-4", "all", 5e-4, [], true);
      ("2e-3", "all", 2e-3, [], true);
      ("8e-3", "all", 8e-3, [], true);
      ("8e-3", "flip", 8e-3, [ Media.Bit_flip ], true);
      ("8e-3", "poison", 8e-3, [ Media.Poison_line ], true);
      ("8e-3", "transient", 8e-3, [ Media.Transient ], true);
      ("8e-3", "all / no repair", 8e-3, [], false);
    ]
  in
  let cells =
    List.map
      (fun (_, _, rate, kinds, repair) ->
        par_map ctx
          (fun seed ->
            Mediacheck.run_cell
              { Mediacheck.pools = 3; records = 48; rate; kinds; seed; repair })
          (List.init seeds (fun i -> i + 1)))
      rows
  in
  let sum f cs = List.fold_left (fun acc c -> acc + f c) 0 cs in
  let sites = sum (fun (c : Mediacheck.cell) -> c.Mediacheck.sites) in
  let detected =
    sum (fun (c : Mediacheck.cell) -> c.Mediacheck.report.Nvml_pool.Scrub.detected)
  in
  let repaired =
    sum (fun (c : Mediacheck.cell) -> c.Mediacheck.report.Nvml_pool.Scrub.repaired)
  in
  let unrepairable =
    sum (fun (c : Mediacheck.cell) ->
        c.Mediacheck.report.Nvml_pool.Scrub.unrepairable)
  in
  let lost =
    sum (fun (c : Mediacheck.cell) ->
        c.Mediacheck.report.Nvml_pool.Scrub.lost_objects)
  in
  let mispred =
    sum (fun (c : Mediacheck.cell) -> List.length c.Mediacheck.mispredictions)
  in
  table
    ~header:
      [ "rate"; "kinds"; "repair"; "seeds"; "sites"; "detected"; "repaired";
        "unrepairable"; "lost"; "mispredict" ]
    (List.map2
       (fun (rate_s, kinds_s, _, _, repair) cs ->
         [
           rate_s; kinds_s; (if repair then "yes" else "no"); int_ seeds;
           int_ (sites cs); int_ (detected cs); int_ (repaired cs);
           int_ (unrepairable cs); int_ (lost cs); int_ (mispred cs);
         ])
       rows cells);
  let all = List.concat cells in
  (* one populate-seal-scrub pass over pools x records per cell *)
  ops_add ctx (List.length all * 3 * 48);
  metric ctx "scrub.sites" (float_of_int (sites all));
  metric ctx "scrub.detected" (float_of_int (detected all));
  metric ctx "scrub.repaired" (float_of_int (repaired all));
  metric ctx "scrub.unrepairable" (float_of_int (unrepairable all));
  metric ctx "scrub.mispredictions" (float_of_int (mispred all));
  if mispred all = 0 then
    Printf.printf
      "every cell's scrub report matches the injector's ground truth exactly\n\
       (all planted metadata corruptions detected; every replica-coverable\n\
       superblock loss repaired; unrepairable damage leaves the pool degraded).\n"
  else begin
    Printf.printf "%d MISPREDICTIONS — the scrub and the injector disagree:\n"
      (mispred all);
    List.iter
      (fun (c : Mediacheck.cell) ->
        List.iter
          (fun m -> Printf.printf "  seed %d: %s\n" c.Mediacheck.seed m)
          c.Mediacheck.mispredictions)
      all
  end;
  subheading "checksum overhead";
  (* The header CRC-16 rides in the spare high bits of the size word the
     allocator already reads and writes, so the hot path carries zero
     extra memory traffic; only the (rare) seal/verify protocol touches
     additional words.  The pinned profile outputs are byte-identical to
     the pre-integrity baseline — the hot-path cost is exactly zero, not
     merely under the 5% budget. *)
  table
    ~header:[ "operation"; "extra word reads"; "extra word writes"; "when" ]
    [
      [ "pmalloc / pfree"; "0"; "0"; "every allocation (CRC in spare bits)" ];
      [ "attach verify"; "8"; "0"; "once per pool open" ];
      [ "first write of a session"; "8"; "1"; "once per pool per session" ];
      [ "seal (detach/scrub)"; "7"; "8"; "once per pool close" ];
    ];
  metric ctx "scrub.overhead.hot_path_words" 0.0;
  Printf.printf
    "hot-path overhead: 0 extra words per allocation; integrity traffic is\n\
     confined to pool open/close (15-16 word ops per pool per session).\n"

(* --- serving ------------------------------------------------------------- *)

(* The serving engine at scale: the four serving mixes through the
   sharded, batched, front-cached engine (fast functional core — the
   mixes run millions of requests, and throughput/percentiles must be
   deterministic for the --metrics-json pinning).  Shard cells run
   through the worker pool; the merge is in shard-index order, so the
   metrics are byte-identical across --jobs.  Throughput is simulated
   ops per second (requests / (max shard cycles / clock)); in the fast
   core, cycles are instruction counts. *)
let serving ctx =
  let module Serving = Nvml_kvstore.Serving in
  heading "Serving at scale: sharded pools, batching, DRAM front cache";
  let records = if ctx.quick then 20_000 else 1_000_000 in
  let ops = if ctx.quick then 50_000 else 2_500_000 in
  let shards = 8 and batch = 32 in
  let front_cache = records / 8 in
  let mixes = Workload.serving_mixes ~records ~ops in
  let cfg = { Config.default with timing = false } in
  let results =
    List.map
      (fun (name, spec) ->
        if ctx.verbose then Printf.eprintf "  [run] serving / %s...\n%!" name;
        let config =
          Serving.default_config ~structure:"Hash" ~mode:Runtime.Hw ~cfg ~shards
            ~batch ~front_cache spec
        in
        (name, Serving.run ~par:(Nvml_exec.Pool.run ctx.pool) config))
      mixes
  in
  (* The cache size that ran: each shard gets front_cache / shards. *)
  Printf.printf
    "%d records, %d ops per mix; Hash x %d shards, batch %d, front cache %d\n"
    records ops shards batch (snd (List.hd results)).Serving.front_cache;
  table
    ~header:
      [ "mix"; "requests"; "Mops/s"; "p50"; "p99"; "p999"; "cache hit";
        "write-backs" ]
    (List.map
       (fun (name, (r : Serving.t)) ->
         let s = Latency.summary (Oplat.latency r.Serving.oplat) in
         [
           name; int_ r.Serving.ops; f2 (Serving.ops_per_sec r /. 1e6);
           int_ s.Latency.p50; int_ s.Latency.p99; int_ s.Latency.p999;
           pct (Serving.hit_rate r.Serving.cache);
           int_ r.Serving.cache.Serving.writebacks;
         ])
       results);
  List.iter
    (fun (name, (r : Serving.t)) ->
      let prefix = "serving." ^ name in
      metric ctx (prefix ^ ".ops") (float_of_int r.Serving.ops);
      metric ctx (prefix ^ ".ops_per_s") (Serving.ops_per_sec r);
      metric ctx (prefix ^ ".shards") (float_of_int r.Serving.shards);
      metric ctx (prefix ^ ".run_cycles_max") (float_of_int r.Serving.run_cycles_max);
      metric ctx (prefix ^ ".cache.hit_rate") (Serving.hit_rate r.Serving.cache);
      metric ctx
        (prefix ^ ".cache.writebacks")
        (float_of_int r.Serving.cache.Serving.writebacks);
      metric ctx (prefix ^ ".digest") (Int64.to_float r.Serving.digest);
      latency_metrics ctx prefix [ r.Serving.oplat ];
      ops_add ctx r.Serving.ops)
    results;
  Printf.printf
    "service time is the slowest shard; front-cache hits never touch the\n\
     persistent structure, and every dirty entry is written back before\n\
     detach, so final pool contents match a cache-disabled run.\n"

(* --- multi-core contention ----------------------------------------------- *)

(* The `concurrent` experiment: contended episodes of the canonical
   multi-core workload (shared FliT-marked counter + linked set) on the
   cycle-accurate machine, plus the crash-at-any-event durability sweep
   over a seeded 2-core interleaving.  Episodes are deterministic
   functions of (cores, ops, scheduler seed) and the sweep's crash
   passes are share-nothing, so every metric is byte-identical across
   --jobs. *)
let concurrent ctx =
  let module Cluster = Nvml_runtime.Cluster in
  let module Multicore = Nvml_arch.Multicore in
  let module Flit = Nvml_structures.Flit in
  let module Conc_counter = Nvml_structures.Conc_counter in
  let module Conc_list = Nvml_structures.Conc_list in
  let module Conc_workload = Nvml_structures.Conc_workload in
  let module F = Nvml_faultinject.Faultinject in
  heading "Multi-core contention: coherence, flush elision, durability";
  let ops_per_core = if ctx.quick then 200 else 2_000 in
  let episode cores =
    let rt = Runtime.create ~mode:Runtime.Hw () in
    let pool = Runtime.create_pool rt ~name:"conc" ~size:(1 lsl 24) in
    let s = Conc_workload.setup ~sched_seed:7 ~cores ~ops_per_core rt ~pool in
    Conc_workload.run s;
    ops_add ctx (cores * ops_per_core);
    s
  in
  let core_counts = if ctx.quick then [ 2 ] else [ 2; 4 ] in
  let episodes = List.map (fun c -> (c, episode c)) core_counts in
  table
    ~header:
      [ "cores"; "ops/core"; "steps"; "contended"; "switches"; "invalidations";
        "flushes issued"; "flushes elided"; "max core cycles" ]
    (List.map
       (fun (cores, s) ->
         let st = Cluster.stats s.Conc_workload.cluster in
         let fc = Conc_counter.flit s.Conc_workload.counter in
         let fl = Conc_list.flit s.Conc_workload.list in
         let max_cycles =
           Array.fold_left
             (fun acc cpu -> max acc (Cpu.cycles cpu))
             0
             (Multicore.cores (Cluster.machine s.Conc_workload.cluster))
         in
         [
           int_ cores; int_ ops_per_core; int_ st.Multicore.steps;
           int_ st.Multicore.contended_steps; int_ st.Multicore.switches;
           int_ st.Multicore.invalidations;
           int_ (Flit.issued fc + Flit.issued fl);
           int_ (Flit.elided fc + Flit.elided fl);
           int_ max_cycles;
         ])
       episodes);
  List.iter
    (fun (cores, s) ->
      let prefix = Printf.sprintf "conc.c%d" cores in
      let st = Cluster.stats s.Conc_workload.cluster in
      let fc = Conc_counter.flit s.Conc_workload.counter in
      let fl = Conc_list.flit s.Conc_workload.list in
      metric ctx (prefix ^ ".steps") (float_of_int st.Multicore.steps);
      metric ctx
        (prefix ^ ".contended_steps")
        (float_of_int st.Multicore.contended_steps);
      metric ctx (prefix ^ ".switches") (float_of_int st.Multicore.switches);
      metric ctx
        (prefix ^ ".coherence_invalidations")
        (float_of_int st.Multicore.invalidations);
      metric ctx
        (prefix ^ ".flit.flushes_issued")
        (float_of_int (Flit.issued fc + Flit.issued fl));
      metric ctx
        (prefix ^ ".flit.flushes_elided")
        (float_of_int (Flit.elided fc + Flit.elided fl));
      metric ctx
        (prefix ^ ".flit.writer_flushes")
        (float_of_int (Flit.writer_flushes fc + Flit.writer_flushes fl));
      Array.iteri
        (fun i cpu ->
          metric ctx
            (Printf.sprintf "%s.cycles.core%d" prefix i)
            (float_of_int (Cpu.cycles cpu)))
        (Multicore.cores (Cluster.machine s.Conc_workload.cluster)))
    episodes;
  subheading "Durability: crash at every event of a seeded 2-core schedule";
  let r =
    F.run ~par:(Nvml_exec.Pool.run ctx.pool)
      ~spec:{ F.default_spec with every_n = (if ctx.quick then 2 else 1) }
      (F.conc_workload ~cores:2
         ~ops_per_core:(if ctx.quick then 4 else 8) ())
  in
  (* reference pass + one full workload replay per crash point *)
  ops_add ctx ((List.length r.F.outcomes + 1) * r.F.ops);
  metric ctx "conc.fi.events" (float_of_int r.F.events);
  metric ctx "conc.fi.points" (float_of_int (List.length r.F.outcomes));
  metric ctx "conc.fi.violations" (float_of_int (List.length r.F.violations));
  if r.F.violations = [] then
    Printf.printf
      "%d crash points over the 2-core interleaving: every recovered state \
       sits between the completed and invoked operation sets.\n"
      (List.length r.F.outcomes)
  else Fmt.pr "%a@." F.pp_report r

(* --- persistency-model sweep ---------------------------------------- *)

(* The `persist` experiment: the retention-model spectrum (eager,
   epoch:1, epoch:8, epoch:64, lazy) across two index structures, on
   both axes of the trade:

   - cycles: the cycle-accurate harness measures each model's drain
     traffic (flush+fence µ-events).  epoch:1 — a synchronous
     flush+fence at every operation boundary, the legacy software
     discipline — is the expensive end; wider epochs coalesce dirty
     lines and save most of it; eager is the paper's hardware ideal
     (in-place persistence, no drain traffic at all).
   - loss exposure: a faultinject sweep per model, whose contract
     oracle predicts exactly which crash points lose a committed op
     suffix; any misprediction is a hard failure, so the exposure
     numbers are verified, not estimated.

   Every cell is a share-nothing machine, so the metrics are
   byte-identical across --jobs. *)
let persist ctx =
  let module F = Nvml_faultinject.Faultinject in
  heading "Persistency models: drain traffic saved vs suffix-loss exposure";
  let records = if ctx.quick then 1_000 else 5_000 in
  let ops = if ctx.quick then 500 else 2_500 in
  (* Write-heavy stream: the trade only shows on the write path (reads
     never dirty a line), and the latest-skewed updates give wider
     epochs hot lines to coalesce. *)
  let kspec =
    {
      ctx.spec with
      Workload.record_count = records;
      operation_count = ops;
      read_proportion = 0.5;
      update_proportion = 0.45;
      insert_proportion = 0.05;
    }
  in
  let models =
    [
      Persist.Eager;
      Persist.Epoch { interval = 1 };
      Persist.Epoch { interval = 8 };
      Persist.Epoch { interval = 64 };
      Persist.Lazy_on_detach;
    ]
  in
  (* Metric keys must stay dot-separated: epoch:8 -> epoch_8. *)
  let mkey m =
    String.map (fun c -> if c = ':' then '_' else c) (Persist.model_name m)
  in
  let structures = [ "RB"; "Hash" ] in
  let hw =
    grid ctx
      (fun s m -> cell ctx ~persist:m ~spec:kspec s Runtime.Hw)
      structures models
  in
  let runs =
    List.concat_map
      (fun s -> List.map (fun m -> ((s, m), hw s m)) models)
      structures
  in
  let cycles_of s m = (hw s m).Harness.run.Cpu.cycles in
  Printf.printf "%d records + %d ops per cell, HW mode, cycle-accurate\n"
    records ops;
  table
    ~header:
      [ "structure"; "model"; "run cycles"; "vs epoch:1"; "drains"; "flushes";
        "fences"; "dirty words" ]
    (List.map
       (fun ((s, m), (r : Harness.result)) ->
         let c = r.Harness.run.Cpu.cycles in
         let e1 = cycles_of s (Persist.Epoch { interval = 1 }) in
         let vs =
           if Persist.is_eager m then "--"
           else Printf.sprintf "%+.1f%%"
               (100. *. (float_of_int c -. float_of_int e1) /. float_of_int e1)
         in
         let p = r.Harness.persist in
         [
           s; Persist.model_name m; with_commas c; vs;
           int_ p.Harness.drains; int_ p.Harness.flushes;
           int_ p.Harness.fences; int_ p.Harness.buffered;
         ])
       runs);
  List.iter
    (fun ((s, m), (r : Harness.result)) ->
      let prefix = Printf.sprintf "persist.%s.%s" s (mkey m) in
      let p = r.Harness.persist in
      metric ctx (prefix ^ ".run_cycles") (float_of_int r.Harness.run.Cpu.cycles);
      metric ctx (prefix ^ ".load_cycles")
        (float_of_int r.Harness.load.Cpu.cycles);
      metric ctx (prefix ^ ".drains") (float_of_int p.Harness.drains);
      metric ctx (prefix ^ ".flushes") (float_of_int p.Harness.flushes);
      metric ctx (prefix ^ ".fences") (float_of_int p.Harness.fences);
      metric ctx (prefix ^ ".buffered") (float_of_int p.Harness.buffered);
      if (not (Persist.is_eager m)) && m <> Persist.Epoch { interval = 1 }
      then begin
        let e1 = float_of_int (cycles_of s (Persist.Epoch { interval = 1 })) in
        metric ctx
          (prefix ^ ".savings_vs_epoch1")
          ((e1 -. float_of_int r.Harness.run.Cpu.cycles) /. e1)
      end)
    runs;
  (* Loss-exposure axis: one contract-verified crash sweep per model
     (fast functional core; the verdicts are timing-independent). *)
  subheading "verified loss exposure (faultinject contract oracle)";
  let fi_records = 10 and fi_ops = 30 in
  let sweeps =
    List.map
      (fun m ->
        if ctx.verbose then
          Printf.eprintf "  [run] persist / faultinject / %s...\n%!"
            (Persist.model_name m);
        let w = F.kv_workload ~structure:"RB" ~records:fi_records ~ops:fi_ops () in
        let r =
          F.run ~par:(Nvml_exec.Pool.run ctx.pool) ~persist:m
            ~spec:{ F.default_spec with F.torn = true }
            w
        in
        ops_add ctx ((List.length r.F.outcomes + 1) * fi_ops);
        (m, r))
      models
  in
  table
    ~header:
      [ "model"; "crash points"; "suffix lost"; "max ops lost"; "violations" ]
    (List.map
       (fun (m, (r : F.report)) ->
         let max_lost =
           List.fold_left (fun acc o -> max acc o.F.lost_ops) 0 r.F.outcomes
         in
         [
           Persist.model_name m; int_ (List.length r.F.outcomes);
           int_ r.F.suffix_lost; int_ max_lost;
           int_ (List.length r.F.violations);
         ])
       sweeps);
  let total_violations =
    List.fold_left
      (fun acc (_, (r : F.report)) -> acc + List.length r.F.violations)
      0 sweeps
  in
  List.iter
    (fun (m, (r : F.report)) ->
      let prefix = "persist.fi." ^ mkey m in
      let max_lost =
        List.fold_left (fun acc o -> max acc o.F.lost_ops) 0 r.F.outcomes
      in
      metric ctx (prefix ^ ".points") (float_of_int (List.length r.F.outcomes));
      metric ctx (prefix ^ ".suffix_lost") (float_of_int r.F.suffix_lost);
      metric ctx (prefix ^ ".max_ops_lost") (float_of_int max_lost);
      metric ctx (prefix ^ ".violations")
        (float_of_int (List.length r.F.violations)))
    sweeps;
  metric ctx "persist.mispredictions" (float_of_int total_violations);
  if total_violations = 0 then
    Printf.printf
      "every model kept its contract: at each crash point recovery landed on\n\
       exactly the epoch boundary the oracle predicted (eager loses nothing;\n\
       epoch:N at most its open window; lazy everything since attach).\n"
  else
    List.iter
      (fun (m, (r : F.report)) ->
        List.iter
          (fun (p, v) ->
            Printf.printf "  %s point %d: %s\n" (Persist.model_name m) p v)
          r.F.violations)
      sweeps
