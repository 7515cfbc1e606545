(* Determinism runner: run a command with --jobs 1 and with --jobs 4 at
   the same time, fail unless the two outputs are byte-identical, and
   keep the --jobs 1 output (for the pins and schema gates that read it).

     jobs_pair.exe OUT PROG ARG... [-- J1-ARG...]

   The outputs are the command's stdout and, when an ARG is "{}" or
   "{FILE}", the document the command writes there ("{...}" becomes a
   fresh path for each run).  Both are compared; anything else the
   command prints is shown only if it fails.  J1-ARGs are passed to the
   --jobs 1 run only, e.g. a --stats dump that a schema gate reads.  The
   --jobs 1 stdout is copied to OUT ("-" prints it) and its document to
   FILE. *)

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("jobs_pair: " ^ m);
      exit 1)
    fmt

let read path = In_channel.with_open_bin path In_channel.input_all

let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* A scratch file, removed at exit even when the command fails. *)
let scratch ext =
  let path = Filename.temp_file "jobs_pair" ext in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* The FILE of a "{FILE}" argument ("" for "{}"). *)
let doc_arg a =
  let n = String.length a in
  if n >= 2 && a.[0] = '{' && a.[n - 1] = '}' then Some (String.sub a 1 (n - 2))
  else None

type run = { jobs : int; pid : int; out : string; err : string; doc : string }

let start prog args jobs =
  let out = scratch ".out" and err = scratch ".err" and doc = scratch ".doc" in
  let args =
    List.map (fun a -> if doc_arg a = None then a else doc) args
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
  { jobs; pid; out; err; doc }

(* The stdout and document of a finished run, or its other output and a
   failure. *)
let outputs cmd r = function
  | Unix.WEXITED 0 -> (read r.out, read r.doc)
  | Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      prerr_string (read r.out);
      prerr_string (read r.err);
      fail "%s --jobs %d exited with %d" cmd r.jobs n

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
      let cmd = String.concat " " (prog :: args) in
      let j1 = start prog (args @ j1_args) 1 in
      let j4 = start prog args 4 in
      let s1 = snd (Unix.waitpid [] j1.pid) in
      let s4 = snd (Unix.waitpid [] j4.pid) in
      let out1, doc1 = outputs cmd j1 s1 in
      let out4, doc4 = outputs cmd j4 s4 in
      let same what a b =
        a = b
        || (Printf.eprintf
              "jobs_pair: %s: --jobs 1 and --jobs 4 %s differ (first at line \
               %d)\n"
              cmd what (first_difference a b);
            false)
      in
      let same_out = same "stdouts" out1 out4 in
      let same_doc = same "documents" doc1 doc4 in
      if not (same_out && same_doc) then exit 1;
      if out = "-" then print_string out1 else write out out1;
      Option.iter
        (fun file -> if file <> "" then write file doc1)
        (List.find_map doc_arg args)
  | _ -> fail "usage: jobs_pair.exe OUT PROG ARG... [-- J1-ARG...]"
