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
