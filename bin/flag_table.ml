(* Which flags each engine of an nvml subcommand reads: one table per
   subcommand, the one rule that checks a command line against it, and
   the row lists the docs print.  The CLI checks every command line of
   kv, stats, run and faultinject here, and bench/cli_walk.ml runs every
   (subcommand, row, flag) triple of the same tables through the built
   binary.

   A fact of a command line is "--flag" for a flag set to a value other
   than its default, or "--flag value" for a value that rows select on
   (--mode volatile, --workload conc).  The chosen row is the first
   whose selectors include a fact (a row without selectors always
   matches) and that takes the --structure given.  Every "--flag" fact
   must then be a flag that row reads, under the row's condition on it,
   or the command line is bad input naming the flag and the row. *)

module Intf = Nvml_structures.Intf
module Registry = Nvml_structures.Registry

(* When a row reads a flag: always, only with another fact, or only
   without it. *)
type cond = Always | With of string | Unless of string

(* A row: the engine it runs, the facts that select it, the
   --structure values it takes ([] for none) and the flags it reads. *)
type 'e row = {
  engine : 'e;
  name : string;
  select : string list;
  structures : string list;
  reads : (string * cond) list;
}

(* A subcommand's rows, in the order they are tried (the last need no
   selector, so one always runs), and the flags every row reads. *)
type 'e t = { command : string; rows : 'e row list; every_row : string list }

(* [reads] is a space-separated flag list; [conds] the conditions on
   some of them. *)
let row ?(select = []) ?(structures = []) ?(conds = []) engine name reads =
  let read f = (f, Option.value (List.assoc_opt f conds) ~default:Always) in
  let reads = List.map read (String.split_on_char ' ' reads) in
  { engine; name; select; structures; reads }

let maps =
  List.map (fun (module M : Intf.ORDERED_MAP) -> M.name) Registry.all_maps

let default_structure = "RB"

(* --- the tables ----------------------------------------------------------- *)

let kv =
  let common = "--records --fast --latency --slow-trace --stats --trace" in
  let durable = [ ("--persist", Unless "--mode volatile") ] in
  let ll = [ "LL" ] in
  {
    command = "kv";
    every_row = [ "--jobs" ];
    rows =
      [
        row `Cores "cores" ~select:[ "--cores" ] ~structures:maps ~conds:durable
          "--cores --mode --persist --records --ops --distribution --fast";
        row `Serving "serving" ~structures:maps
          ~select:[ "--shards"; "--batch"; "--front-cache"; "--mix" ]
          ~conds:[ ("--distribution", Unless "--mix") ]
          ("--shards --batch --front-cache --mix --mode --ops --distribution "
         ^ common);
        row `Compare "compare" ~select:[ "--compare" ] ~structures:maps
          ("--compare --persist --ops --distribution " ^ common);
        row `Compare "LL compare" ~select:[ "--compare" ] ~structures:ll
          ("--compare " ^ common);
        row `Harness "harness" ~structures:maps ~conds:durable
          ("--mode --persist --ops --distribution " ^ common);
        row `Harness "LL harness" ~structures:ll ~conds:durable
          ("--mode --persist " ^ common);
      ];
  }

let stats =
  {
    command = "stats";
    every_row = [ "--jobs" ];
    rows =
      [
        row () "map" ~structures:maps "--records --ops --distribution --output";
        row () "LL" ~structures:[ "LL" ] "--records --output";
      ];
  }

let run =
  {
    command = "run";
    every_row = [];
    rows =
      [
        row () "volatile" ~select:[ "--mode volatile" ] "--mode --fast --cores";
        row () "durable"
          ~conds:[ ("--persist", With "--persistent") ]
          "--mode --persist --persistent --fast --cores";
      ];
  }

let faultinject =
  let sweep =
    "--mode --persist --ops --every-n --at --seed --max-points --timing"
  in
  let at = ("--every-n", Unless "--at") in
  let torn = [ at; ("--seed", With "--torn") ] in
  {
    command = "faultinject";
    every_row = [ "--jobs" ];
    rows =
      [
        row () "counter" ~select:[ "--workload counter" ] ~conds:torn
          ("--workload --torn --break-recovery " ^ sweep);
        row () "conc" ~select:[ "--workload conc" ]
          ~conds:[ at; ("--seed", With "--cores") ]
          ("--workload --cores " ^ sweep);
        row () "kv" ~structures:maps ~conds:torn
          ("--records --torn --break-recovery " ^ sweep);
      ];
  }

(* --- the rule ------------------------------------------------------------- *)

(* How row [r] reads flag [f], if at all; a row that takes structures
   reads --structure. *)
let reads r f =
  if f = "--structure" && r.structures <> [] then Some Always
  else List.assoc_opt f r.reads

(* The row a command line runs, or the error naming the first flag (in
   alphabetical order) that it does not read.  [facts] pairs each fact
   with whether it holds. *)
let check t ?(structure = default_structure) facts =
  let facts = List.map fst (List.filter snd facts) in
  let selected r =
    r.select = [] || List.exists (fun s -> List.mem s facts) r.select
  in
  let takes r = r.structures = [] || List.mem structure r.structures in
  let r = List.find (fun r -> selected r && takes r) t.rows in
  let refused f =
    let no why = Some (f, why) in
    if String.contains f ' ' || List.mem f t.every_row then None
    else
      match reads r f with
      | Some Always -> None
      | Some (With c) when List.mem c facts -> None
      | Some (Unless c) when not (List.mem c facts) -> None
      | Some (With c) -> no ("reads it only with " ^ c)
      | Some (Unless c) -> no ("does not read it with " ^ c)
      | None -> no "does not read it"
  in
  match List.filter_map refused (List.sort compare facts) with
  | [] -> Ok r
  | (f, why) :: _ ->
      Error
        (Printf.sprintf "option '%s': the %s row of %s %s" f r.name t.command
           why)

(* --- docs ----------------------------------------------------------------- *)

let cond_note = function
  | Always -> ""
  | With c -> "with " ^ c
  | Unless c -> "not with " ^ c

let with_note x = function "" -> x | n -> Printf.sprintf "%s (%s)" x n

(* The sentence a flag's doc ends with: the rows that read it, each with
   its condition on the flag, or that the flag selects it. *)
let doc t f =
  let item r =
    Option.map
      (fun c ->
        with_note r.name
          (if List.mem f r.select then "selects it" else cond_note c))
      (reads r f)
  in
  match List.filter_map item t.rows with
  | [] -> ""
  | items -> " Rows: " ^ String.concat ", " items ^ "."

(* A subcommand's ROWS man section: the rule, then each row with its
   selectors, structures and flags. *)
let man t =
  let read (f, c) = with_note f (cond_note c) in
  let rule =
    Printf.sprintf
      "nvml %s runs the first row below that a flag given selects (a row \
       without selectors needs none)%s.  A flag set to a value other than \
       its default that this row does not read is bad input (exit 124)%s."
      t.command
      (if List.for_all (fun r -> r.structures = []) t.rows then ""
       else " and that takes the --structure given")
      (if t.every_row = [] then ""
       else "; every row reads " ^ String.concat ", " t.every_row)
  in
  let row r =
    Printf.sprintf "%s: %s%s; reads %s." r.name
      (if r.select = [] then "no selector"
       else "selected by " ^ String.concat " or " r.select)
      (if r.structures = [] then ""
       else "; takes " ^ String.concat "|" r.structures)
      (String.concat ", " (List.map read r.reads))
  in
  `S "ROWS" :: List.map (fun p -> `P p) (rule :: List.map row t.rows)
