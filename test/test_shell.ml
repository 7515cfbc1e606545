(* Tests for the interactive persistent KV shell, driven directly
   through the command interpreter. *)

module Shell = Nvml_kvstore.Shell
module Runtime = Nvml_runtime.Runtime

let check_bool = Alcotest.(check bool)
let check_lines = Alcotest.(check (list string))

let exec = Shell.exec

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_put_get_del () =
  let s = Shell.create () in
  check_lines "put" [ "ok" ] (exec s "put 1 100");
  check_lines "get hit" [ "100" ] (exec s "get 1");
  check_lines "get miss" [ "(not found)" ] (exec s "get 2");
  check_lines "overwrite" [ "ok" ] (exec s "put 1 101");
  check_lines "updated" [ "101" ] (exec s "get 1");
  check_lines "del" [ "ok" ] (exec s "del 1");
  check_lines "del again" [ "(not found)" ] (exec s "del 1");
  check_lines "size" [ "0" ] (exec s "size")

let test_keys_sorted () =
  let s = Shell.create () in
  List.iter (fun k -> ignore (exec s (Printf.sprintf "put %d %d" k k)))
    [ 5; 1; 3; 2; 4 ];
  check_lines "keys ascending" [ "1"; "2"; "3"; "4"; "5" ] (exec s "keys");
  check_lines "empty list message" [ "(empty)" ]
    (exec (Shell.create ()) "keys")

let test_crash_persistence () =
  let s = Shell.create () in
  for i = 1 to 50 do
    ignore (exec s (Printf.sprintf "put %d %d" i (i * 2)))
  done;
  (match exec s "crash" with
  | [ line ] ->
      check_bool "recovery message mentions 50 keys" true
        (contains ~needle:"50 keys intact" line)
  | other -> Alcotest.failf "unexpected crash reply: %d lines" (List.length other));
  check_lines "value survives" [ "84" ] (exec s "get 42");
  check_lines "size survives" [ "50" ] (exec s "size");
  (* Mutations after recovery, then crash again. *)
  ignore (exec s "put 51 102");
  ignore (exec s "del 1");
  ignore (exec s "crash");
  check_lines "post-recovery insert survives" [ "102" ] (exec s "get 51");
  check_lines "post-recovery delete survives" [ "(not found)" ] (exec s "get 1")

let test_errors () =
  let s = Shell.create () in
  check_lines "bad int" [ "error: not an integer: \"x\"" ] (exec s "put x 1");
  (match exec s "frobnicate" with
  | [ line ] ->
      check_bool "unknown command" true
        (contains ~needle:"unknown command" line)
  | _ -> Alcotest.fail "expected one line");
  check_lines "blank is silent" [] (exec s "   ")

let test_other_structures () =
  List.iter
    (fun structure ->
      let s = Shell.create ~structure () in
      ignore (exec s "put 7 70");
      ignore (exec s "crash");
      check_lines (structure ^ " works") [ "70" ] (exec s "get 7"))
    [ "Hash"; "Splay"; "AVL"; "SG"; "Skip"; "BTree"; "Radix" ]

let test_modes () =
  List.iter
    (fun mode ->
      let s = Shell.create ~mode () in
      ignore (exec s "put 3 33");
      check_lines
        (Fmt.str "get in %a" Runtime.pp_mode mode)
        [ "33" ] (exec s "get 3"))
    [ Runtime.Sw; Runtime.Hw; Runtime.Explicit ];
  Alcotest.check_raises "no shell in the volatile mode"
    (Invalid_argument "Shell.create: the Volatile mode has no pool for the map")
    (fun () -> ignore (Shell.create ~mode:Runtime.Volatile ()))

let test_stats_shape () =
  let s = Shell.create () in
  ignore (exec s "put 1 1");
  let lines = exec s "stats" in
  check_bool "five stat lines" true (List.length lines = 5)

(* `crash torn` with a fixed seed must replay bit-identically: the
   examples/ transcript diff relies on this. *)
let test_torn_crash_deterministic () =
  let session () =
    let s = Shell.create ~seed:7 () in
    List.concat_map (exec s)
      [ "put 1 100"; "put 2 200"; "put 1 111"; "crash torn"; "size"; "crash";
        "keys" ]
  in
  let a = session () and b = session () in
  check_lines "identical replies" a b;
  check_bool "the torn crash replied" true
    (List.exists (contains ~needle:"torn store") a)

let () =
  Alcotest.run "shell"
    [
      ( "commands",
        [
          Alcotest.test_case "put/get/del" `Quick test_put_get_del;
          Alcotest.test_case "keys" `Quick test_keys_sorted;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "stats" `Quick test_stats_shape;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "crash cycles" `Quick test_crash_persistence;
          Alcotest.test_case "torn crash is deterministic" `Quick
            test_torn_crash_deterministic;
          Alcotest.test_case "all structures" `Quick test_other_structures;
          Alcotest.test_case "all modes" `Quick test_modes;
        ] );
    ]
