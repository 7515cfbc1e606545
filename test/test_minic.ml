(* Tests for mini-C and the compiler pass: the interpreter's own
   behaviour, the Section VII-B soundness experiment (every corpus
   program produces identical output with the heap in DRAM and with the
   heap in a persistent pool, in every runtime mode), and the
   check-elimination statistics of the inference. *)

module Runtime = Nvml_runtime.Runtime
module Ast = Nvml_minic.Ast
module Types = Nvml_minic.Types
module Interp = Nvml_minic.Interp
module Corpus = Nvml_minic.Corpus
module Inference = Nvml_comp.Inference

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_out = Alcotest.(check (list int64))

let run_program ?plan ~mode ~persistent_heap program =
  (snd (Interp.run_fresh ?plan ~mode ~persistent:persistent_heap program))
    .Interp.output

(* --- interpreter unit tests -------------------------------------------- *)

let prog_of_main body = Ast.prog [ Ast.fn "main" body ]

let test_arith () =
  let open Ast in
  let p =
    prog_of_main
      [
        SExpr (call "print" [ int_ 2 + (int_ 3 * int_ 4) ]);
        SExpr (call "print" [ binop Mod (int_ 17) (int_ 5) ]);
        SExpr (call "print" [ cond (int_ 0) (int_ 1) (int_ 2) ]);
        SReturn (Some (int_ 0));
      ]
  in
  check_out "arith" [ 14L; 2L; 2L ]
    (run_program ~mode:Runtime.Volatile ~persistent_heap:false p)

let test_while_loop () =
  let open Ast in
  let p =
    prog_of_main
      [
        SDecl ("i", Tint, Some (int_ 0));
        SDecl ("acc", Tint, Some (int_ 0));
        SWhile
          ( var "i" < int_ 10,
            [
              SExpr (assign (var "acc") (var "acc" + var "i"));
              SExpr (pre_incr (var "i"));
            ] );
        SExpr (call "print" [ var "acc" ]);
        SReturn None;
      ]
  in
  check_out "sum 0..9" [ 45L ]
    (run_program ~mode:Runtime.Volatile ~persistent_heap:false p)

let test_heap_roundtrip () =
  let open Ast in
  let p =
    prog_of_main
      [
        SDecl ("p", Tptr Tint, Some (cast (Tptr Tint) (call "malloc" [ int_ 8 ])));
        SExpr (assign (deref (var "p")) (int_ 55));
        SExpr (call "print" [ deref (var "p") ]);
        SExpr (call "free" [ var "p" ]);
        SReturn None;
      ]
  in
  List.iter
    (fun mode ->
      check_out
        (Fmt.str "heap roundtrip in %a" Runtime.pp_mode mode)
        [ 55L ]
        (run_program ~mode ~persistent_heap:true p))
    Runtime.all_modes

let test_type_errors_detected () =
  let open Ast in
  let bad = prog_of_main [ SExpr (deref (int_ 3)); SReturn None ] in
  check_bool "deref of int rejected" true
    (try
       ignore (Types.check_program bad);
       false
     with Types.Type_error _ -> true)

let test_sizeof () =
  let open Ast in
  let s = { sname = "s3"; fields = [ ("a", Tint); ("b", Tptr Tint); ("c", Tint) ] } in
  let p =
    prog ~structs:[ s ]
      [
        fn "main"
          [
            SExpr (call "print" [ sizeof (Tstruct "s3") ]);
            SExpr (call "print" [ sizeof (Tptr (Tstruct "s3")) ]);
            SExpr (call "print" [ sizeof (Tarray (Tint, 5)) ]);
            SReturn None;
          ];
      ]
  in
  check_out "sizes" [ 24L; 8L; 40L ]
    (run_program ~mode:Runtime.Volatile ~persistent_heap:false p)

let test_recursion_depth () =
  let open Ast in
  let p =
    prog
      [
        fn "down" ~params:[ ("n", Tint) ]
          [
            SIf (var "n" == int_ 0, [ SReturn (Some (int_ 0)) ], []);
            SReturn (Some (int_ 1 + call "down" [ var "n" - int_ 1 ]));
          ];
        fn "main" [ SExpr (call "print" [ call "down" [ int_ 200 ] ]); SReturn None ];
      ]
  in
  check_out "depth 200" [ 200L ]
    (run_program ~mode:Runtime.Hw ~persistent_heap:true p)

(* --- soundness: volatile vs persistent heap, all modes ------------------- *)

let soundness_case (name, program) =
  Alcotest.test_case name `Slow (fun () ->
      let reference =
        run_program ~mode:Runtime.Volatile ~persistent_heap:false program
      in
      check_bool "reference output nonempty" true (reference <> []);
      List.iter
        (fun mode ->
          (* Native heap. *)
          check_out
            (Fmt.str "%s, DRAM heap, %a" name Runtime.pp_mode mode)
            reference
            (run_program ~mode ~persistent_heap:false program);
          (* libvmmalloc-style persistent heap. *)
          check_out
            (Fmt.str "%s, NVM heap, %a" name Runtime.pp_mode mode)
            reference
            (run_program ~mode ~persistent_heap:true program))
        [ Runtime.Sw; Runtime.Hw ])

let soundness_with_plan_case (name, program) =
  Alcotest.test_case (name ^ " (inferred plan)") `Slow (fun () ->
      (* Check elision must not change behaviour. *)
      let reference =
        run_program ~mode:Runtime.Volatile ~persistent_heap:false program
      in
      let inference = Inference.infer ~heap_relative:true program in
      let plan = Inference.plan inference in
      check_out
        (name ^ " with inferred plan")
        reference
        (run_program ~plan ~mode:Runtime.Sw ~persistent_heap:true program))

(* --- inference ------------------------------------------------------------ *)

let test_inference_counts_sites () =
  let r = Inference.infer (Corpus.find "linked_list") in
  check_bool "found pointer-op sites" true (r.Inference.total_sites > 10);
  check_bool "some checks remain" true (r.Inference.checked_sites > 0);
  check_bool "some checks eliminated" true
    (r.Inference.checked_sites < r.Inference.total_sites)

let test_inference_resolves_local_malloc () =
  (* array_sum only manipulates a locally-allocated array: inference
     should resolve most sites. *)
  let r = Inference.infer (Corpus.find "array_sum") in
  check_bool
    (Fmt.str "array_sum mostly resolved (%.0f%% checked)"
       (100. *. Inference.fraction_checked r))
    true
    (Inference.fraction_checked r < 0.5)

let test_inference_conservative_on_params () =
  (* Pointers loaded out of NVM-reachable cells have unknown format, so
     traversal code that chases loaded pointers keeps its checks. *)
  List.iter
    (fun name ->
      let r = Inference.infer (Corpus.find name) in
      check_bool (name ^ ": loaded-pointer chasing stays checked") true
        (Inference.fraction_checked r > 0.0))
    [ "linked_list"; "binary_tree" ];
  (* By contrast, a program whose pointers are all normalized locals is
     fully resolved: the checks moved to the (already counted)
     materialization sites. *)
  let r = Inference.infer (Corpus.find "mixed_stores") in
  check_bool "normalized-locals program fully resolved" true
    (Inference.fraction_checked r = 0.0)

let test_inference_volatile_heap () =
  (* With a DRAM heap nothing is ever relative: everything resolves. *)
  let r = Inference.infer ~heap_relative:false (Corpus.find "array_sum") in
  check_int "no checks with a volatile heap" 0 r.Inference.checked_sites

let test_corpus_average_elimination () =
  (* Across the corpus, a substantial share of sites is eliminated but
     a substantial share remains — the paper reports ~42 % remaining. *)
  let fractions =
    List.map (fun (_, p) -> Inference.fraction_checked (Inference.infer p)) Corpus.all
  in
  let avg = List.fold_left ( +. ) 0.0 fractions /. float_of_int (List.length fractions) in
  check_bool (Fmt.str "average checked fraction %.2f in (0.1, 0.9)" avg) true
    (avg > 0.1 && avg < 0.9)

let () =
  Alcotest.run "minic"
    [
      ( "interpreter",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "while" `Quick test_while_loop;
          Alcotest.test_case "heap roundtrip" `Quick test_heap_roundtrip;
          Alcotest.test_case "type errors" `Quick test_type_errors_detected;
          Alcotest.test_case "sizeof" `Quick test_sizeof;
          Alcotest.test_case "recursion" `Quick test_recursion_depth;
        ] );
      ("soundness", List.map soundness_case Corpus.all);
      ("soundness-with-plan", List.map soundness_with_plan_case Corpus.all);
      ( "inference",
        [
          Alcotest.test_case "counts sites" `Quick test_inference_counts_sites;
          Alcotest.test_case "resolves local malloc" `Quick
            test_inference_resolves_local_malloc;
          Alcotest.test_case "conservative on params" `Quick
            test_inference_conservative_on_params;
          Alcotest.test_case "volatile heap" `Quick test_inference_volatile_heap;
          Alcotest.test_case "corpus average" `Quick
            test_corpus_average_elimination;
        ] );
    ]
