(* Determinism runner: run a command with --jobs 1 and with --jobs 4,
   fail unless the two outputs are byte-identical, and keep the --jobs 1
   output (for the schema gate that reads it).

     jobs_pair.exe OUT PROG ARG... [-- J1-ARG...]

   The output is the command's stdout or, when an ARG is "{}", the file
   the command writes there ("{}" becomes a fresh path for each run).
   Anything else the command prints is shown only if it fails.  J1-ARGs
   are passed to the --jobs 1 run only, e.g. a --stats dump that a
   schema gate reads.  The --jobs 1 output is copied to OUT. *)

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("jobs_pair: " ^ m);
      exit 1)
    fmt

let read path = In_channel.with_open_bin path In_channel.input_all

(* A scratch file, removed at exit even when the command fails. *)
let scratch ext =
  let path = Filename.temp_file "jobs_pair" ext in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let run prog args jobs =
  let out = scratch ".out" and err = scratch ".err" and doc = scratch ".doc" in
  let args =
    List.map (fun a -> if a = "{}" then doc else a) args
    @ [ "--jobs"; string_of_int jobs ]
  in
  let fd path = Unix.openfile path [ O_WRONLY; O_TRUNC ] 0 in
  let fd_out = fd out and fd_err = fd err in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin fd_out
      fd_err
  in
  Unix.close fd_out;
  Unix.close fd_err;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, (Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      prerr_string (read out);
      prerr_string (read err);
      fail "%s exited with %d" (String.concat " " (prog :: args)) n);
  read (if List.mem doc args then doc else out)

let first_difference a b =
  let rec go line i =
    if i >= String.length a || i >= String.length b || a.[i] <> b.[i] then line
    else go (if a.[i] = '\n' then line + 1 else line) (i + 1)
  in
  go 1 0

let () =
  match List.tl (Array.to_list Sys.argv) with
  | out :: prog :: rest ->
      (* Dune passes a program of this directory by its bare name. *)
      let prog =
        if Filename.is_implicit prog && Sys.file_exists prog then "./" ^ prog
        else prog
      in
      let rec split acc = function
        | "--" :: j1 -> (List.rev acc, j1)
        | a :: tl -> split (a :: acc) tl
        | [] -> (List.rev acc, [])
      in
      let args, j1_args = split [] rest in
      let j1 = run prog (args @ j1_args) 1 in
      let j4 = run prog args 4 in
      if j1 <> j4 then
        fail "%s: --jobs 1 and --jobs 4 outputs differ (first at line %d)"
          (String.concat " " (prog :: args))
          (first_difference j1 j4);
      Out_channel.with_open_bin out (fun oc -> output_string oc j1)
  | _ -> fail "usage: jobs_pair.exe OUT PROG ARG... [-- J1-ARG...]"
