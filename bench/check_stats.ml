(* Schema gate for the JSON documents the bench driver and the CLI write.

     check_stats.exe [--SCHEMA] DOC.json
     check_stats.exe --bench DOC.json --baseline BASE.json [--max-regress F]

   SCHEMA is fuzz, media, latency, serving, conc, persist or bench; without
   one the document is a stats dump.  Each schema is a list of rules read
   by one interpreter; the first broken rule is printed and exits 1.

   A document is read as flat dotted keys: {"a": {"b": 1}} holds "a" and
   "a.b", and a list of objects that all carry a string "name" (the bench
   "experiments") flattens to experiments.<name>.<field>.  A rule is a
   group pattern plus tests on fields of each group (the field "" is the
   group's own key).  The pattern is a key, {a,b} alternatives, or holds
   one "*" matching any non-empty string; a "*" group exists where the
   rule's [by] field does, and at least one must unless the rule is
   optional.

   With --baseline, floors and ceilings compare each key with the same
   key of the baseline and fail when it is more than F times worse
   (default 1.2).  A key the baseline lacks or holds as <= 0 is not
   compared, nor is a throughput whose run, or whose baseline when it
   records one, took under the 50 ms noise floor. *)

module Json = Nvml_telemetry.Json

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline m;
      exit 1)
    fmt

type kind =
  | Int
  | Number
  | Pos  (** > 0 *)
  | Nonneg  (** >= 0 *)
  | Zero
  | Unit  (** in [0,1] *)
  | One_of of string list

type test =
  | Each of kind * string list
  | Le of string * string  (** a <= b *)
  | Ladder of string list  (** non-decreasing *)
  | Unit_sum of string list  (** fractions summing to 1, or all 0 *)
  | Wall_sum of string * string list  (** parts <= total * 1.05 + 50 ms *)
  | Floor of string * string option
      (** >= baseline / F, skipped when the wall field is noisy *)
  | Ceiling of string  (** <= baseline * F *)

type rule = { pat : string; by : string; optional : bool; tests : test list }

let rule ?(by = "") ?(optional = false) pat tests = { pat; by; optional; tests }

(* --- the schemas --------------------------------------------------------- *)

let ladder = [ "p50"; "p90"; "p99"; "p999"; "max" ]

let stats =
  [
    rule "derived"
      [
        Each
          ( Number,
            [ "valb.hit_rate"; "polb.hit_rate"; "check_sites.dynamic_fraction" ]
          );
      ];
    rule "counters.*" [ Each (Int, [ "" ]) ];
  ]

let fuzz =
  [
    rule "counters.fuzz"
      [
        Each (Int, [ "runs"; "ops"; "violations"; "shrink_replays" ]);
        Each (Pos, [ "runs"; "ops" ]);
        Each (Nonneg, [ "violations" ]);
      ];
  ]

let media =
  let counts =
    [
      "scrub.unrepairable"; "scrub.lost_objects"; "read.flips"; "read.poisons";
      "read.transient_faults"; "read.retries"; "healed_words"; "seals";
      "writes_refused"; "attach.verified"; "attach.dirty"; "attach.degraded";
    ]
  in
  [
    rule "counters.media"
      [
        Each
          ( Int,
            [ "scrub.runs"; "scrub.pools"; "scrub.detected"; "scrub.repaired" ]
            @ counts );
        Each (Pos, [ "scrub.runs"; "scrub.pools" ]);
        Le ("scrub.repaired", "scrub.detected");
        Each (Nonneg, counts);
      ];
  ]

(* Every <prefix>.latency.p50 opens a percentile group; fast functional
   mode leaves the non-base tail fractions all zero. *)
let latency =
  let tail =
    List.map (( ^ ) "tail.")
      [ "base"; "check"; "translation"; "stall"; "media" ]
  in
  [
    rule "metrics.*.latency" ~by:"p50"
      [
        Each (Nonneg, ladder); Ladder ladder; Each (Unit, tail); Unit_sum tail;
      ];
  ]

let serving =
  [
    rule "metrics.serving.{read-latest,scan-heavy,rmw-heavy,hot-storm}"
      [
        Each (Pos, [ "ops"; "ops_per_s"; "shards" ]);
        Each (Int, [ "shards" ]);
        Each (Unit, [ "cache.hit_rate" ]);
        Each (Nonneg, [ "cache.writebacks" ]);
        Ladder [ "latency.p50"; "latency.p99"; "latency.p999" ];
      ];
  ]

(* A contention group must actually have contended, and the durability
   sweep must have crashed somewhere and found nothing. *)
let conc =
  [
    rule "metrics.conc.c*" ~by:"coherence_invalidations"
      [
        Each
          ( Pos,
            [
              "coherence_invalidations"; "steps"; "contended_steps"; "switches";
              "flit.flushes_elided"; "flit.writer_flushes"; "cycles.core0";
            ] );
        Each (Nonneg, [ "flit.flushes_issued" ]);
      ];
    rule "metrics.conc.fi"
      [ Each (Pos, [ "events"; "points" ]); Each (Zero, [ "violations" ]) ];
  ]

(* Eager persists in place (no drain traffic, never loses a committed
   op); every relaxed model drains, the wider ones beat the per-op
   flush+fence baseline (epoch:1) and expose a lost suffix; the contract
   oracle never mispredicts. *)
let persist =
  let models = "{eager,epoch_1,epoch_8,epoch_64,lazy}" in
  let traffic = [ "drains"; "flushes"; "fences"; "buffered" ] in
  [
    rule ("metrics.persist.{RB,Hash}." ^ models)
      [ Each (Pos, [ "run_cycles" ]); Each (Nonneg, traffic) ];
    rule "metrics.persist.{RB,Hash}.eager" [ Each (Zero, traffic) ];
    rule "metrics.persist.{RB,Hash}.{epoch_1,epoch_8,epoch_64,lazy}"
      [ Each (Pos, [ "drains"; "flushes" ]); Le ("drains", "fences") ];
    rule "metrics.persist.{RB,Hash}.{epoch_8,epoch_64,lazy}"
      [ Each (Pos, [ "savings_vs_epoch1" ]) ];
    rule ("metrics.persist.fi." ^ models)
      [
        Each (Pos, [ "points" ]);
        Each (Nonneg, [ "suffix_lost"; "max_ops_lost" ]);
        Each (Zero, [ "violations" ]);
      ];
    rule "metrics.persist.fi.eager" [ Each (Zero, [ "suffix_lost" ]) ];
    rule "metrics.persist.fi.{epoch_64,lazy}" [ Each (Pos, [ "suffix_lost" ]) ];
    rule "metrics.persist" [ Each (Zero, [ "mispredictions" ]) ];
  ]

(* The perf-trajectory document (BENCH_<n>.json).  Against a baseline:
   fast-mode wall and latency percentiles are ceilings, per-experiment
   ops/s and epoch-mode cycle savings are floors. *)
let bench =
  let walls = [ "fast_wall_s"; "cycle_wall_s"; "other_wall_s" ] in
  [
    rule ""
      [
        Each (One_of [ "bench-trajectory" ], [ "kind" ]);
        Each (Pos, [ "suite_wall_s" ]);
        Wall_sum ("suite_wall_s", List.map (( ^ ) "mode_breakdown.") walls);
      ];
    rule "mode_breakdown" [ Each (Nonneg, walls); Ceiling "fast_wall_s" ];
    rule "experiments.*" ~by:"name"
      [
        Each (One_of [ "fast"; "cycle"; "other" ], [ "mode" ]);
        Each (Nonneg, [ "wall_s"; "ops"; "ops_per_s" ]);
        Floor ("ops_per_s", Some "wall_s");
      ];
    rule "experiments.*.latency" ~optional:true
      [
        Each (Nonneg, ladder);
        Each (Pos, [ "count" ]);
        Ladder ladder;
        Ceiling "p50";
        Ceiling "p99";
        Ceiling "p999";
      ];
    rule "metrics.persist.*" ~by:"savings_vs_epoch1" ~optional:true
      [
        Each (Pos, [ "savings_vs_epoch1" ]); Floor ("savings_vs_epoch1", None);
      ];
  ]

let schemas =
  [
    ("--fuzz", fuzz); ("--media", media); ("--latency", latency);
    ("--serving", serving); ("--conc", conc); ("--persist", persist);
    ("--bench", bench);
  ]

(* --- documents as flat keys ---------------------------------------------- *)

type doc = {
  path : string;
  keys : string list;  (** in document order *)
  table : (string, Json.t) Hashtbl.t;
}

let join a b = if a = "" then b else if b = "" then a else a ^ "." ^ b

let load path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error m -> fail "%s" m
  in
  let root =
    match Json.of_string text with
    | Ok v -> v
    | Error m -> fail "%s: invalid JSON: %s" path m
  in
  let table = Hashtbl.create 256 and keys = ref [] in
  let name item =
    match Json.member "name" item with
    | Some (Json.String n) -> Some n
    | _ -> None
  in
  let rec walk key v =
    if key <> "" then begin
      Hashtbl.replace table key v;
      keys := key :: !keys
    end;
    match v with
    | Json.Obj kvs -> List.iter (fun (k, v) -> walk (join key k) v) kvs
    | Json.List (_ :: _ as items)
      when List.for_all (fun i -> name i <> None) items ->
        List.iter (fun i -> walk (join key (Option.get (name i))) i) items
    | _ -> ()
  in
  walk "" root;
  { path; keys = List.rev !keys; table }

let number doc key =
  match Hashtbl.find_opt doc.table key with
  | Some (Json.Int n) -> Some (float_of_int n)
  | Some (Json.Float f) -> Some f
  | _ -> None

let value doc key =
  match Hashtbl.find_opt doc.table key with
  | Some v -> v
  | None -> fail "%s: missing %s" doc.path key

let num doc key =
  match (number doc key, value doc key) with
  | Some f, _ -> f
  | None, v ->
      fail "%s: %s is %s, expected a number" doc.path key (Json.to_string v)

(* "{a,b}" alternatives expand to one pattern per combination. *)
let rec expand pat =
  match String.index_opt pat '{' with
  | None -> [ pat ]
  | Some i ->
      let j = String.index_from pat i '}' in
      let rest = expand (String.sub pat (j + 1) (String.length pat - j - 1)) in
      List.concat_map
        (fun alt -> List.map (fun r -> String.sub pat 0 i ^ alt ^ r) rest)
        (String.split_on_char ',' (String.sub pat (i + 1) (j - i - 1)))

let groups doc r =
  List.concat_map
    (fun pat ->
      match String.index_opt pat '*' with
      | None -> [ pat ]
      | Some i ->
          let pre = String.sub pat 0 i in
          let post = String.sub pat (i + 1) (String.length pat - i - 1) in
          let suffix = if r.by = "" then post else post ^ "." ^ r.by in
          let lp = String.length pre and ls = String.length suffix in
          let found =
            List.filter_map
              (fun k ->
                let lk = String.length k in
                if
                  lk > lp + ls
                  && String.starts_with ~prefix:pre k
                  && String.ends_with ~suffix k
                then Some (pre ^ String.sub k lp (lk - lp - ls) ^ post)
                else None)
              doc.keys
          in
          if found = [] && not r.optional then
            fail "%s: no key matches %s" doc.path (join pat r.by);
          found)
    (expand r.pat)

(* --- the interpreter ----------------------------------------------------- *)

let noise_floor_s = 0.05

type run = {
  doc : doc;
  base : (doc * float) option;  (** baseline and regression factor *)
  mutable ran : int;  (** tests run *)
  mutable compared : int;
  mutable noisy : int;
}

let check_kind doc key kind =
  let bad want =
    fail "%s: %s is %s, expected %s" doc.path key
      (Json.to_string (value doc key))
      want
  in
  match kind with
  | Int -> ( match value doc key with Json.Int _ -> () | _ -> bad "an integer")
  | Number -> ignore (num doc key)
  | Pos -> if not (num doc key > 0.0) then bad "> 0"
  | Nonneg -> if not (num doc key >= 0.0) then bad ">= 0"
  | Zero -> if num doc key <> 0.0 then bad "0"
  | Unit ->
      let x = num doc key in
      if not (x >= 0.0 && x <= 1.0) then bad "in [0,1]"
  | One_of names -> (
      match value doc key with
      | Json.String s when List.mem s names -> ()
      | _ -> bad ("one of " ^ String.concat "|" names))

(* Compare [key] with the baseline's value: a floor fails below
   base / factor, a ceiling above base * factor. *)
let compare_base st ~floor ?wall key =
  let doc = st.doc in
  match st.base with
  | None -> ()
  | Some (base, factor) -> (
      match number base key with
      | Some b when b > 0.0 ->
          let cur = num doc key in
          let noisy w =
            num doc w < noise_floor_s
            || Option.fold ~none:false
                 ~some:(fun bw -> bw < noise_floor_s)
                 (number base w)
          in
          if floor && cur <= 0.0 then ()
          else if Option.fold ~none:false ~some:noisy wall then
            st.noisy <- st.noisy + 1
          else begin
            st.compared <- st.compared + 1;
            if floor && cur < b /. factor then
              fail "%s: %s regressed: %g < %g (baseline %g / %.2f)" doc.path
                key cur (b /. factor) b factor;
            if (not floor) && cur > b *. factor then
              fail "%s: %s regressed: %g > %g (baseline %g x %.2f)" doc.path
                key cur (b *. factor) b factor
          end
      | _ -> ())

let run_test st g test =
  let doc = st.doc in
  let key = join g in
  let nums fields = List.map (fun f -> num doc (key f)) fields in
  let show fields =
    String.concat " "
      (List.map (fun f -> Printf.sprintf "%s=%g" f (num doc (key f))) fields)
  in
  st.ran <- st.ran + 1;
  match test with
  | Each (kind, fields) ->
      List.iter (fun f -> check_kind doc (key f) kind) fields
  | Le (a, b) ->
      if num doc (key a) > num doc (key b) then
        fail "%s: %s exceeds %s (%s)" doc.path (key a) (key b) (show [ a; b ])
  | Ladder fields ->
      let rec sorted = function
        | a :: (b :: _ as tl) -> a <= b && sorted tl
        | _ -> true
      in
      if not (sorted (nums fields)) then
        fail "%s: %s not monotone (%s)" doc.path g (show fields)
  | Unit_sum fields ->
      let sum = List.fold_left ( +. ) 0.0 (nums fields) in
      if sum > 0.0 && Float.abs (sum -. 1.0) > 1e-3 then
        fail "%s: %s fractions sum to %g, expected 1 (or all 0)" doc.path g sum
  | Wall_sum (total, parts) ->
      let sum = List.fold_left ( +. ) 0.0 (nums parts) in
      let t = num doc (key total) in
      if sum > (t *. 1.05) +. 0.05 then
        fail "%s: %s sum to %.3f, more than %s (%.3f)" doc.path
          (String.concat "+" (List.map key parts))
          sum (key total) t
  | Floor (field, wall) ->
      compare_base st ~floor:true ?wall:(Option.map key wall) (key field)
  | Ceiling field -> compare_base st ~floor:false (key field)

let check ?baseline schema path =
  let base = Option.map (fun (b, factor) -> (load b, factor)) baseline in
  let st = { doc = load path; base; ran = 0; compared = 0; noisy = 0 } in
  List.iter
    (fun r ->
      List.iter (fun g -> List.iter (run_test st g) r.tests) (groups st.doc r))
    schema;
  Printf.printf "%s: ok (%d tests)\n" path st.ran;
  Option.iter
    (fun (_, factor) ->
      Printf.printf
        "%s: %d baseline comparisons within %.2fx (%d skipped under the %.0f \
         ms noise floor)\n"
        path st.compared factor st.noisy (noise_floor_s *. 1000.))
    base

let () =
  let usage () =
    fail
      "usage: check_stats [--fuzz | --media | --latency | --serving | --conc \
       | --persist] DOC.json | --bench DOC.json [--baseline BASE.json \
       [--max-regress F]] | STATS.json"
  in
  match List.tl (Array.to_list Sys.argv) with
  | [ path ] when not (String.starts_with ~prefix:"--" path) -> check stats path
  | [ flag; path ] -> (
      match List.assoc_opt flag schemas with
      | Some schema -> check schema path
      | None -> usage ())
  | [ "--bench"; path; "--baseline"; base ] ->
      check ~baseline:(base, 1.2) bench path
  | [ "--bench"; path; "--baseline"; base; "--max-regress"; f ] -> (
      match float_of_string_opt f with
      | Some factor when factor > 0.0 ->
          check ~baseline:(base, factor) bench path
      | _ -> fail "--max-regress expects a positive float, got %S" f)
  | _ -> usage ()
