(* The check-site / lookaside profile: run one benchmark in the SW and
   HW configurations inside a fresh telemetry scope and distill the
   observability story the paper tells in Section VII —

   - which of the structure's sites executed dynamic checks and how
     often (the SW version's per-site profile),
   - the POLB/VALB hit rates the HW version's latency-hiding rests on,
   - where the cycles went (attribution by stall source).

   The two harness runs are independent simulation cells, so the caller
   may hand us a parallel runner ([Pool.run] from bench) — telemetry
   merges at the join make the result identical either way. *)

module Telemetry = Nvml_telemetry.Telemetry
module Runtime = Nvml_runtime.Runtime
module Site = Nvml_runtime.Site
module Cpu = Nvml_arch.Cpu
module Workload = Nvml_ycsb.Workload

type site_row = { site : string; static : bool; checks : int }

type t = {
  benchmark : string;
  sw : Harness.result;
  hw : Harness.result;
  sites : site_row list; (* by descending checks, then name *)
  counters : (string * int) list;
  histos : (string * Telemetry.histo_stats) list;
  derived : (string * float) list;
}

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* One row per distinct site name of the profiled structure (prefix
   "rb." for RB), whatever else the process has run.  [Site.make] may
   mint a name repeatedly; the rows merge them, as their shared
   telemetry counter already does. *)
let site_rows benchmark =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let name = Site.name s in
      if not (Hashtbl.mem tbl name) then
        Hashtbl.replace tbl name
          { site = name; static = Site.is_static s; checks = Site.checks s })
    (Site.with_prefix (String.lowercase_ascii benchmark ^ "."));
  Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
  |> List.sort (fun a b ->
         match compare b.checks a.checks with
         | 0 -> compare a.site b.site
         | c -> c)

let inline_runner fs = List.map (fun f -> f ()) fs

(* Run the profile.  [par] runs the two independent mode cells —
   [Pool.run pool] in bench, sequential by default. *)
let run ?(par = inline_runner) ~benchmark (spec : Workload.spec) : t =
  let was_enabled = Telemetry.enabled () in
  Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled was_enabled)
  @@ fun () ->
  Telemetry.run_with_sink (Telemetry.fresh_sink ())
  @@ fun () ->
  let sw, hw =
    match
      par
        [
          (fun () -> Harness.run_benchmark benchmark ~mode:Runtime.Sw spec);
          (fun () -> Harness.run_benchmark benchmark ~mode:Runtime.Hw spec);
        ]
    with
    | [ sw; hw ] -> (sw, hw)
    | _ -> assert false
  in
  let sites = site_rows benchmark in
  let dynamic_sites = List.length (List.filter (fun r -> not r.static) sites) in
  let counters = Telemetry.counters_snapshot () in
  let cval name = try List.assoc name counters with Not_found -> 0 in
  let derived =
    [
      (* Fraction of the structure's pointer-operation sites the
         inference could not resolve (the paper's whole-program ~42 %
         has its analog in the [compiler] experiment). *)
      ( "check_sites.dynamic_fraction",
        ratio dynamic_sites (List.length sites) );
      (* Execution-weighted: of the check *executions* the SW version
         reached, how many actually ran (vs statically elided). *)
      ( "check_execs.dynamic_fraction",
        ratio (cval "checks.dynamic")
          (cval "checks.dynamic" + cval "checks.elided") );
      (* Lookaside hit rates, from the counters the HW run published
         (whole-run: the VALB sees most of its traffic during pool
         setup, so run-phase-only deltas can be all-zero). *)
      ( "polb.hit_rate",
        ratio (cval "polb.hit") (cval "polb.hit" + cval "polb.miss") );
      ( "valb.hit_rate",
        ratio (cval "valb.hit") (cval "valb.hit" + cval "valb.miss") );
      ( "vspace.tc.hit_rate",
        ratio (cval "vspace.tc.hit")
          (cval "vspace.tc.hit" + cval "vspace.tc.miss") );
      ("sw.slowdown", ratio sw.Harness.run.Cpu.cycles hw.Harness.run.Cpu.cycles);
    ]
  in
  {
    benchmark;
    sw;
    hw;
    sites;
    counters;
    histos = Telemetry.histos_snapshot ();
    derived;
  }

(* The stats document, built from the snapshots captured inside the
   profile's telemetry scope (the scope is gone by the time callers
   serialize).  Same schema as [Telemetry.stats_json]. *)
let stats_json (t : t) : Nvml_telemetry.Json.t =
  let module Json = Nvml_telemetry.Json in
  Json.Obj
    [
      ("schema", Json.Int 1);
      ("benchmark", Json.String t.benchmark);
      ( "derived",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) t.derived) );
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) t.counters) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (k, (h : Telemetry.histo_stats)) ->
               ( k,
                 Json.Obj
                   [
                     ("count", Json.Int h.Telemetry.count);
                     ("sum", Json.Int h.Telemetry.sum);
                     ("min", Json.Int h.Telemetry.min);
                     ("max", Json.Int h.Telemetry.max);
                     ("mean", Json.Float h.Telemetry.mean);
                     ( "log2_buckets",
                       Json.List
                         (List.map
                            (fun (ub, n) ->
                              Json.List [ Json.Int ub; Json.Int n ])
                            h.Telemetry.log2_buckets) );
                   ] ))
             t.histos) );
      ( "sites",
        Json.Obj
          (List.map
             (fun r ->
               ( r.site,
                 Json.Obj
                   [
                     ("static", Json.Bool r.static);
                     ("checks", Json.Int r.checks);
                   ] ))
             t.sites) );
    ]
