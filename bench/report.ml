(* Plain-text table rendering for the benchmark reports. *)

let line = String.make 78 '-'

let heading title =
  Printf.printf "\n%s\n%s\n%s\n" line title line

let subheading title = Printf.printf "\n-- %s --\n" title

(* Render rows of cells with left-aligned first column and right-aligned
   numeric columns, sized to content. *)
let table ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let render_row row =
    List.iteri
      (fun c cell ->
        let w = List.nth widths c in
        if c = 0 then Printf.printf "%-*s" w cell
        else Printf.printf "  %*s" w cell)
      row;
    print_newline ()
  in
  render_row header;
  List.iteri
    (fun c _ ->
      let w = List.nth widths c in
      if c = 0 then print_string (String.make w '-')
      else print_string ("  " ^ String.make w '-'))
    header;
  print_newline ();
  List.iter render_row rows

let f2 x = Printf.sprintf "%.2f" x
let f3 x = Printf.sprintf "%.3f" x
let pct x = Printf.sprintf "%.2f%%" (100. *. x)
let int_ n = string_of_int n

let with_commas n =
  let s = string_of_int n in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3)) in
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Headline metrics, accumulated as experiments print and emitted as
   machine-readable JSON in the driver's [--metrics-json] and [--bench]
   documents.  Experiments may record metrics from worker-domain tasks,
   so the list is mutex-guarded; ordering is whatever order [metric] is
   called in, which the driver keeps deterministic by recording from
   result values after the parallel joins. *)
let metrics : (string * float) list ref = ref []
let metrics_lock = Mutex.create ()

let metric name value =
  Mutex.lock metrics_lock;
  metrics := (name, value) :: !metrics;
  Mutex.unlock metrics_lock

let metrics_snapshot () =
  Mutex.lock metrics_lock;
  let l = List.rev !metrics in
  Mutex.unlock metrics_lock;
  l

(* Per-experiment operation tally for the --bench trajectory document
   (BENCH_<n>.json): experiments add the number of simulated operations
   they executed (structure ops, crash points, scrub records, ...); the
   driver takes — reads and resets — the tally around each experiment
   to derive ops/sec.  Guarded by the same lock because worker-domain
   result handlers may record it. *)
let ops_tally = ref 0

let ops_add n =
  Mutex.lock metrics_lock;
  ops_tally := !ops_tally + n;
  Mutex.unlock metrics_lock

let ops_take () =
  Mutex.lock metrics_lock;
  let n = !ops_tally in
  ops_tally := 0;
  Mutex.unlock metrics_lock;
  n

(* Per-experiment latency tally, the distribution-level companion of
   [ops_tally]: experiments feed the merged per-op recorders of the
   cells whose latency they report; the driver takes the merged
   recorder around each experiment and embeds its summary in the
   BENCH_<n>.json entry.  Merging is deterministic (recorder cells add;
   the slow-op reservoir has a total order), so the embedded summaries
   are identical across --jobs counts. *)
module Oplat = Nvml_runtime.Oplat

let lat_tally : Oplat.t option ref = ref None

let lat_add (o : Oplat.t) =
  Mutex.lock metrics_lock;
  (match !lat_tally with
  | Some t -> Oplat.merge_into ~dst:t o
  | None ->
      let t = Oplat.create ~cell:"experiment" () in
      Oplat.merge_into ~dst:t o;
      lat_tally := Some t);
  Mutex.unlock metrics_lock

let lat_take () =
  Mutex.lock metrics_lock;
  let t = !lat_tally in
  lat_tally := None;
  Mutex.unlock metrics_lock;
  t

(* --- telemetry profile sections ----------------------------------------- *)

(* The "check-site profile" section: per-site dynamic-check counts from
   a telemetry profile, as [(site, static, checks)] rows sorted by the
   caller; only the top [limit] rows are shown. *)
let check_site_profile ?(limit = 12) rows =
  subheading "check-site profile";
  let shown = List.filteri (fun i _ -> i < limit) rows in
  table
    ~header:[ "Site"; "static"; "dynamic checks" ]
    (List.map
       (fun (site, static, checks) ->
         [ site; (if static then "yes" else "no"); with_commas checks ])
       shown);
  let hidden = List.length rows - List.length shown in
  if hidden > 0 then Printf.printf "(%d more sites)\n" hidden

(* The "lookaside hit rates" section: named hit rates as percentages. *)
let lookaside_hit_rates rates =
  subheading "lookaside hit rates";
  table
    ~header:[ "Structure"; "hit rate" ]
    (List.map (fun (name, r) -> [ name; pct r ]) rates)

(* The "cycle attribution" section: rows of per-source cycle counts that
   sum to the version's total; rendered as fractions of that total. *)
let cycle_attribution ~sources rows =
  subheading "cycle attribution";
  table
    ~header:("Version" :: sources)
    (List.map
       (fun (label, counts) ->
         let total = float_of_int (max 1 (List.fold_left ( + ) 0 counts)) in
         label :: List.map (fun n -> pct (float_of_int n /. total)) counts)
       rows)

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
           /. float_of_int (List.length xs))
