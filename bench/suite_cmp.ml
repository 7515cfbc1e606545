(* Order-free comparison of a bench run with the pinned quick suite:

     suite_cmp.exe PINNED.txt PINNED.json RUN.txt RUN.json

   The stdouts must have the same banner (the lines before the first
   heading) and the same heading blocks (a heading and the lines up to
   the next one), in any order; the --metrics-json documents must have
   the same metrics, in any order.  A heading or a metric named twice
   in one document is a difference too.  Prints every difference and
   exits 1, or prints what matched.  A file named "-" is read from
   stdin. *)

module Json = Nvml_telemetry.Json

let read = function
  | "-" -> In_channel.input_all stdin
  | path -> In_channel.with_open_bin path In_channel.input_all

let rule = String.make 78 '-'

(* The banner as the untitled first block, then each heading's title
   and block; a block's trailing blank lines separate it from the next
   heading and are dropped. *)
let blocks text =
  let rec go acc title body = function
    | r :: t :: r' :: rest when r = rule && r' = rule ->
        go ((title, body) :: acc) t [] rest
    | line :: rest -> go acc title (line :: body) rest
    | [] -> List.rev ((title, body) :: acc)
  in
  let rec drop_blank = function "" :: l -> drop_blank l | l -> l in
  List.map
    (fun (title, body) -> (title, List.rev (drop_blank body)))
    (go [] "" [] (String.split_on_char '\n' text))

let metrics path text =
  match Result.map (Json.member "metrics") (Json.of_string text) with
  | Ok (Some (Json.Obj kvs)) -> kvs
  | _ ->
      Printf.eprintf "suite_cmp: %s: no metrics object\n" path;
      exit 1

let twice what path kvs =
  let rec go seen = function
    | [] -> []
    | (k, _) :: rest when List.mem k seen ->
        Printf.sprintf "%s %S twice in %s" what k path :: go seen rest
    | (k, _) :: rest -> go (k :: seen) rest
  in
  go [] kvs

(* Differences between [pinned] and [run] (assoc lists), keyed by
   name; [differ name a b] describes a changed value. *)
let compare_keyed what ~pinned ~run differ =
  List.filter_map
    (fun (k, a) ->
      match List.assoc_opt k run with
      | None -> Some (Printf.sprintf "%s %S missing" what k)
      | Some b when a <> b -> Some (differ k a b)
      | Some _ -> None)
    pinned
  @ List.filter_map
      (fun (k, _) ->
        if List.mem_assoc k pinned then None
        else Some (Printf.sprintf "%s %S not pinned" what k))
      run

let first_difference a b =
  let rec go i = function
    | x :: a, y :: b when x = y -> go (i + 1) (a, b)
    | a, b ->
        let line = function x :: _ -> Printf.sprintf "%S" x | [] -> "end" in
        Printf.sprintf "line %d: pinned %s, got %s" i (line a) (line b)
  in
  go 1 (a, b)

let () =
  match Array.to_list Sys.argv with
  | [ _; pinned_txt; pinned_json; run_txt; run_json ] ->
      let pinned_blocks = blocks (read pinned_txt) in
      let run_blocks = blocks (read run_txt) in
      let pinned_metrics = metrics pinned_json (read pinned_json) in
      let run_metrics = metrics run_json (read run_json) in
      let errors =
        twice "heading" pinned_txt pinned_blocks
        @ twice "heading" run_txt run_blocks
        @ compare_keyed "heading block" ~pinned:pinned_blocks ~run:run_blocks
            (fun title a b ->
              Printf.sprintf "%s differs at %s"
                (if title = "" then "banner"
                 else Printf.sprintf "heading block %S" title)
                (first_difference a b))
        @ twice "metric" pinned_json pinned_metrics
        @ twice "metric" run_json run_metrics
        @ compare_keyed "metric" ~pinned:pinned_metrics ~run:run_metrics
            (fun k a b ->
              Printf.sprintf "metric %S: pinned %s, got %s" k (Json.to_string a)
                (Json.to_string b))
      in
      if errors <> [] then begin
        List.iter (Printf.eprintf "suite_cmp: %s\n") errors;
        exit 1
      end;
      Printf.printf "%s: banner, %d heading blocks and %d metrics match\n"
        run_txt
        (List.length run_blocks - 1)
        (List.length run_metrics)
  | _ ->
      prerr_endline "usage: suite_cmp.exe PINNED.txt PINNED.json RUN.txt RUN.json";
      exit 2
