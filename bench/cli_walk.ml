(* The flag-table walk: every (subcommand, row, flag) triple of the CLI's
   flag tables (bin/flag_table.ml), run through the built binary at tiny
   scale.

     cli_walk.exe NVML PROGRAM.mc

   A row's base run passes the flag that selects it, the --structure it
   takes when the default is not one, and the tiny-scale values of the
   flags it reads.  A triple sets one flag to its probe value on top of
   the base (in place of the base's own value), and a flag the row reads
   under a condition is walked once more on top of the condition's fact.
   Each line pins the exit code and the first error line of a rejected
   flag, or whether an accepted one changed stdout+stderr against the
   run without it.  The table's rule predicts every verdict; a run that
   disagrees, an option of `--help` that no table names, or a table
   flag without a probe value fails the walk (exit 1). *)

module T = Flag_table

let nvml = Sys.argv.(1)
let program = Sys.argv.(2)

(* A non-default value for each flag ("" for a flag without one); files
   go to /dev/null. *)
let probes =
  [
    ("--structure", "Hash"); ("--mode", "sw"); ("--persist", "epoch:2");
    ("--records", "8"); ("--ops", "3"); ("--distribution", "uniform");
    ("--jobs", "2"); ("--stats", "/dev/null"); ("--trace", "/dev/null");
    ("--slow-trace", "/dev/null"); ("--output", "/dev/null");
    ("--shards", "2"); ("--batch", "2"); ("--front-cache", "2");
    ("--mix", "scan-heavy"); ("--cores", "2"); ("--workload", "conc");
    ("--every-n", "2"); ("--at", "1"); ("--seed", "2"); ("--max-points", "2");
    ("--compare", ""); ("--latency", ""); ("--fast", ""); ("--persistent", "");
    ("--torn", ""); ("--break-recovery", ""); ("--timing", "");
  ]

let failed = ref false

let fail fmt =
  Printf.ksprintf
    (fun m ->
      failed := true;
      prerr_endline ("cli_walk: " ^ m))
    fmt

(* A command line: positional arguments, then (flag, value) pairs. *)
type line = { pos : string list; flags : (string * string) list }

(* [l] with flag [f] at [v]: in place if [l] sets it, else appended. *)
let set (f, v) l =
  let flags =
    if List.mem_assoc f l.flags then
      List.map (fun (g, w) -> if g = f then (f, v) else (g, w)) l.flags
    else l.flags @ [ (f, v) ]
  in
  { l with flags }

let argv l =
  l.pos
  @ List.concat_map (fun (f, v) -> if v = "" then [ f ] else [ f; v ]) l.flags

let show l = String.concat " " (argv l)

(* A fact as a flag and value: "--flag value" as given, "--flag" at its
   probe value. *)
let fact_arg fact =
  match String.split_on_char ' ' fact with
  | [ f; v ] -> (f, v)
  | _ -> (fact, Option.value (List.assoc_opt fact probes) ~default:"")

(* The facts of a walk line: every flag in it is set off its default. *)
let facts l =
  List.concat_map
    (fun (f, v) -> (f, true) :: (if v = "" then [] else [ (f ^ " " ^ v, true) ]))
    l.flags

(* Run nvml on each distinct argument list, two at a time; the results,
   (exit code, stdout+stderr), by argument list. *)
let run_all cmds =
  let results = Hashtbl.create 256 in
  let pending = Queue.of_seq (List.to_seq cmds) in
  let running = Hashtbl.create 2 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let start args =
    if not (Hashtbl.mem results args) then begin
      let file = Filename.temp_file "cli_walk" ".out" in
      let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let argv = Array.of_list (nvml :: args) in
      let pid = Unix.create_process nvml argv null fd fd in
      Unix.close fd;
      Hashtbl.replace results args (-1, "");
      Hashtbl.replace running pid (args, file)
    end
  in
  let rec loop () =
    while Hashtbl.length running < 2 && not (Queue.is_empty pending) do
      start (Queue.pop pending)
    done;
    if Hashtbl.length running > 0 then begin
      let pid, status = Unix.wait () in
      let args, file = Hashtbl.find running pid in
      Hashtbl.remove running pid;
      let out = In_channel.with_open_bin file In_channel.input_all in
      Sys.remove file;
      let code = match status with Unix.WEXITED n -> n | _ -> -1 in
      Hashtbl.replace results args (code, out);
      loop ()
    end
  in
  loop ();
  Unix.close null;
  results

(* The long options in the OPTIONS section of an nvml subcommand's
   --help, whose entries start at column 7. *)
let help_options command =
  let ic = Unix.open_process_args_in nvml [| nvml; command; "--help=plain" |] in
  let lines = In_channel.input_lines ic in
  ignore (Unix.close_process_in ic);
  let rec section = function
    | "OPTIONS" :: rest -> rest
    | _ :: rest -> section rest
    | [] -> []
  in
  let rec opts = function
    | l :: rest when String.starts_with ~prefix:"       -" l ->
        List.filter_map
          (fun w ->
            if String.starts_with ~prefix:"--" w then
              Some (List.hd (String.split_on_char '=' w))
            else None)
          (String.split_on_char ' ' l)
        @ opts rest
    | l :: rest when l = "" || l.[0] = ' ' -> opts rest
    | _ -> []
  in
  opts (section lines)

(* One walk case: its label, the row it walks, its command line, and
   the run it is compared with (none for the row's base run). *)
type case = { label : string; row : string; line : line; against : line option }

(* The cases of one table, each with the table's verdict on a command
   line: the row it runs, or the error it exits 124 with. *)
let walk (t : _ T.t) ~pos ~tiny =
  let command = t.T.command in
  let options = help_options command in
  let named =
    t.T.every_row
    @ List.concat_map
        (fun r ->
          (if r.T.structures = [] then [] else [ "--structure" ])
          @ List.map (fun s -> fst (fact_arg s)) r.T.select
          @ List.map fst r.T.reads)
        t.T.rows
  in
  List.iter
    (fun o ->
      if not (List.mem o named) then
        fail "%s %s: no row of its table reads it" command o;
      if not (List.mem_assoc o probes) then
        fail "%s %s: no probe value" command o)
    options;
  List.iter
    (fun f ->
      if not (List.mem f options) then
        fail "%s %s: not an option of its --help" command f)
    (List.sort_uniq compare named);
  let row_cases r =
    let label = command ^ " " ^ r.T.name in
    let base =
      let l = { pos = command :: pos; flags = [] } in
      let l = match r.T.select with s :: _ -> set (fact_arg s) l | [] -> l in
      let l =
        match r.T.structures with
        | s :: _ when not (List.mem T.default_structure r.T.structures) ->
            set ("--structure", s) l
        | _ -> l
      in
      List.fold_left
        (fun l (f, v) ->
          if T.reads r f = None && not (List.mem f t.T.every_row) then l
          else set (f, v) l)
        l tiny
    in
    let triple f =
      let probe = (f, List.assoc f probes) in
      let case ?(cond = "") against =
        {
          label = label ^ " " ^ show { pos = []; flags = [ probe ] } ^ cond;
          row = r.T.name;
          line = set probe against;
          against = Some against;
        }
      in
      match T.reads r f with
      | Some (T.With c | T.Unless c) ->
          [ case base; case ~cond:(" with " ^ c) (set (fact_arg c) base) ]
      | _ -> [ case base ]
    in
    { label; row = r.T.name; line = base; against = None }
    :: List.concat_map triple
         (List.filter (fun o -> List.mem_assoc o probes) options)
  in
  let verdict l =
    let structure =
      Option.value
        (List.assoc_opt "--structure" l.flags)
        ~default:T.default_structure
    in
    Result.map (fun r -> r.T.name) (T.check t ~structure (facts l))
  in
  List.map (fun c -> (c, verdict)) (List.concat_map row_cases t.T.rows)

let first_line s = List.hd (String.split_on_char '\n' s)

let () =
  (* One worker domain per run: starting domains would cost more than
     these runs. *)
  let small records ops =
    [ ("--records", records); ("--ops", ops); ("--jobs", "1") ]
  in
  let cases =
    List.concat
      [
        walk T.kv ~pos:[] ~tiny:(small "16" "16");
        walk T.stats ~pos:[] ~tiny:(small "16" "16");
        walk T.run ~pos:[ program ] ~tiny:[];
        walk T.faultinject ~pos:[] ~tiny:(small "6" "4");
      ]
  in
  let results =
    run_all
      (List.concat_map
         (fun (c, _) -> List.map argv (c.line :: Option.to_list c.against))
         cases)
  in
  let output l = Hashtbl.find results (argv l) in
  List.iter
    (fun (c, verdict) ->
      let code, out = output c.line in
      match (c.against, verdict c.line) with
      | Some a, _ when a = c.line ->
          Printf.printf "%s: selects the row\n" c.label
      | None, v ->
          if code <> 0 || v <> Ok c.row then
            fail "%s: %s does not run the row" c.label (show c.line);
          Printf.printf "%s: %s: exit %d\n" c.label (show c.line) code
      | Some _, Error m ->
          if code <> 124 || first_line out <> "nvml: " ^ m then
            fail "%s: the table expects exit 124 and %S" c.label m;
          Printf.printf "%s: exit %d %s\n" c.label code (first_line out)
      | Some a, Ok r ->
          if code = 124 then
            fail "%s: the table expects the %s row to run" c.label r;
          Printf.printf "%s: exit %d %s%s\n" c.label code
            (if snd (output a) = out then "same" else "changed")
            (if r = c.row then "" else " (" ^ r ^ " row)"))
    cases;
  if !failed then exit 1
