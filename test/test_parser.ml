(* Tests for the mini-C surface syntax: lexer, parser, pretty-printer
   roundtrip, behavioural equivalence of parsed vs. embedded programs,
   and the Fig. 9-style instrumentation codegen. *)

module Runtime = Nvml_runtime.Runtime
module Ast = Nvml_minic.Ast
module Lexer = Nvml_minic.Lexer
module Parser = Nvml_minic.Parser
module Pretty = Nvml_minic.Pretty
module Interp = Nvml_minic.Interp
module Corpus = Nvml_minic.Corpus
module Inference = Nvml_comp.Inference
module Codegen = Nvml_comp.Codegen

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_out = Alcotest.(check (list int64))

let run_program ~mode ~persistent program =
  (snd (Interp.run_fresh ~mode ~persistent program)).Interp.output


(* --- lexer -------------------------------------------------------------- *)

let tokens src = List.map (fun t -> t.Lexer.token) (Lexer.tokenize src)

let test_lex_basic () =
  check_bool "number + ident" true
    (tokens "42 foo"
    = [ Lexer.INT_LIT 42L; Lexer.IDENT "foo"; Lexer.EOF ]);
  check_bool "hex" true (tokens "0xFF" = [ Lexer.INT_LIT 255L; Lexer.EOF ]);
  check_bool "keywords" true
    (tokens "int while NULL"
    = [ Lexer.KW_INT; Lexer.KW_WHILE; Lexer.KW_NULL; Lexer.EOF ])

let test_lex_operators () =
  check_bool "compound operators" true
    (tokens "-> ++ -- <= >= == != && || << >>"
    = [
        Lexer.ARROW; Lexer.PLUSPLUS; Lexer.MINUSMINUS; Lexer.LE; Lexer.GE;
        Lexer.EQ; Lexer.NE; Lexer.ANDAND; Lexer.OROR; Lexer.SHL; Lexer.SHR;
        Lexer.EOF;
      ]);
  check_bool "minus vs arrow" true
    (tokens "a-b" = [ Lexer.IDENT "a"; Lexer.MINUS; Lexer.IDENT "b"; Lexer.EOF ])

let test_lex_comments () =
  check_bool "line comment" true
    (tokens "1 // two three\n4" = [ Lexer.INT_LIT 1L; Lexer.INT_LIT 4L; Lexer.EOF ]);
  check_bool "block comment" true
    (tokens "1 /* x\ny */ 2" = [ Lexer.INT_LIT 1L; Lexer.INT_LIT 2L; Lexer.EOF ])

let test_lex_errors () =
  check_bool "stray char" true
    (try
       ignore (tokens "a $ b");
       false
     with Lexer.Lex_error (_, 1, _) -> true);
  check_bool "unterminated comment" true
    (try
       ignore (tokens "1 /* oops");
       false
     with Lexer.Lex_error _ -> true)

(* --- parser: expression shapes ------------------------------------------- *)

let expr_str s = Pretty.expr_text (Parser.parse_expr_string s)

let test_parse_precedence () =
  check_str "mul binds over add" "1 + 2 * 3" (expr_str "1 + 2 * 3");
  check_str "parens preserved where needed" "(1 + 2) * 3"
    (expr_str "(1 + 2) * 3");
  check_str "relational vs logic" "a < b && c < d" (expr_str "a < b && c < d");
  check_str "assignment is rightmost" "a = b = 3" (expr_str "a = b = 3");
  check_str "unary binds tighter" "-a * b" (expr_str "-a * b");
  check_str "deref then arrow" "(*p)->f" (expr_str "(*p)->f")

let test_parse_postfix_chains () =
  check_str "index chain" "rows[1][2]" (expr_str "rows[1][2]");
  check_str "arrow chain" "a->b->c" (expr_str "a->b->c");
  check_str "post incr on deref" "(*p)++" (expr_str "(*p)++");
  check_str "call with args" "f(1, x, g(2))" (expr_str "f(1, x, g(2))")

let test_parse_casts () =
  check_str "cast of call" "(int*)malloc(8)" (expr_str "(int * ) malloc(8)");
  check_str "cast to int" "(int)p - (int)q" (expr_str "(int)p - (int)q");
  check_str "sizeof" "sizeof(struct node)" (expr_str "sizeof(struct node)");
  check_str "cond" "p ? 1 : 0" (expr_str "p ? 1 : 0")

let test_parse_errors () =
  let bad s =
    try
      ignore (Parser.parse_expr_string s);
      false
    with Parser.Parse_error _ -> true
  in
  check_bool "unbalanced paren" true (bad "(1 + 2");
  check_bool "missing operand" true (bad "1 +");
  check_bool "stray bracket" true (bad "a[1");
  let bad_prog s =
    try
      ignore (Parser.parse_program s);
      false
    with Parser.Parse_error _ -> true
  in
  check_bool "missing semi" true (bad_prog "int main() { return 0 }");
  check_bool "bad toplevel" true (bad_prog "42;")

let test_parse_for_break_continue () =
  let src =
    {|
int main() {
  int sum = 0;
  for (int i = 0; i < 20; ++i) {
    if (i % 2 == 1) { continue; }
    if (i > 10) { break; }
    sum = sum + i;
  }
  print(sum);
  return 0;
}
|}
  in
  let program = Parser.parse_program src in
  check_out "for with break/continue" [ 30L ] (* 0+2+4+6+8+10 *)
    (run_program ~mode:Runtime.Volatile ~persistent:false program);
  (* Roundtrips through the printer. *)
  let text = Pretty.program_text program in
  check_str "for roundtrip" text
    (Pretty.program_text (Parser.parse_program text))

let test_parse_function_pointers () =
  let src =
    {|
int twice(int x) { return x * 2; }
int main() {
  fnptr f = twice;
  print(f(21));
  fnptr g = f;
  print((g)(10));
  print(g == twice);
  return 0;
}
|}
  in
  let program = Parser.parse_program src in
  List.iter
    (fun mode ->
      check_out
        (Fmt.str "function pointers in %a" Runtime.pp_mode mode)
        [ 42L; 20L; 1L ]
        (run_program ~mode ~persistent:true program))
    [ Runtime.Volatile; Runtime.Sw; Runtime.Hw ]

(* --- roundtrip: print(parse(print(p))) is stable --------------------------- *)

let test_roundtrip_corpus () =
  List.iter
    (fun (name, program) ->
      let text1 = Pretty.program_text program in
      let reparsed =
        try Parser.parse_program text1
        with Parser.Parse_error (m, l, c) ->
          Alcotest.failf "%s: reparse failed at %d:%d: %s" name l c m
      in
      let text2 = Pretty.program_text reparsed in
      check_str (name ^ " roundtrip stable") text1 text2)
    Corpus.all

(* --- behaviour: a parsed source program runs like the embedded one --------- *)

let linked_list_source =
  {|
struct node {
  int value;
  struct node* next;
};

int main() {
  struct node* head = NULL;
  int i = 0;
  while (i < 8) {
    struct node* n = (struct node*) malloc(sizeof(struct node));
    n->value = i;
    n->next = head;
    head = n;
    ++i;
  }
  struct node* p = head;
  int sum = 0;
  while (p != NULL) {
    sum = sum + p->value;
    p = p->next;
  }
  print(sum);
  /* reverse in place */
  struct node* prev = NULL;
  p = head;
  while (p != NULL) {
    struct node* nx = p->next;
    p->next = prev;
    prev = p;
    p = nx;
  }
  print(prev->value);
  return 0;
}
|}

let test_parsed_program_behaviour () =
  let parsed = Parser.parse_program linked_list_source in
  let reference = run_program ~mode:Runtime.Volatile ~persistent:false parsed in
  check_out "same output as embedded corpus version" reference
    (run_program ~mode:Runtime.Volatile ~persistent:false
       (Corpus.find "linked_list"));
  (* And it is sound under the persistent heap in SW/HW. *)
  List.iter
    (fun mode ->
      check_out
        (Fmt.str "parsed source sound in %a" Runtime.pp_mode mode)
        reference
        (run_program ~mode ~persistent:true parsed))
    [ Runtime.Sw; Runtime.Hw ]

let test_parse_whole_struct_program () =
  let src =
    {|
struct pair { int a; int b; };
int get(struct pair* p) { return p->a + p->b; }
int main() {
  struct pair* p = (struct pair*) malloc(sizeof(struct pair));
  p->a = 30;
  p->b = 12;
  print(get(p));
  return 0;
}
|}
  in
  let program = Parser.parse_program src in
  check_int "two functions" 2 (List.length program.Ast.funcs);
  check_int "one struct" 1 (List.length program.Ast.structs);
  check_out "runs" [ 42L ]
    (run_program ~mode:Runtime.Hw ~persistent:true program)

(* --- codegen (Fig. 9) ---------------------------------------------------------- *)

(* The paper's Fig. 9 example: a linked-list Append through opaque
   parameters. *)
let append_source =
  {|
struct Node { int value; struct Node* next; };
void Append(struct Node* p, struct Node* n) {
  if (p != n) {
    p->next = n;
  }
  return;
}
int main() {
  struct Node* a = (struct Node*) malloc(sizeof(struct Node));
  struct Node* b = (struct Node*) malloc(sizeof(struct Node));
  a->next = NULL;
  b->next = NULL;
  Append(a, b);
  print(a->next == b);
  return 0;
}
|}

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_codegen_inserts_checks () =
  let program = Parser.parse_program append_source in
  let generated = Codegen.generated_source program in
  check_bool "determineY conditionals appear" true
    (contains ~needle:"determineY" generated);
  check_bool "ra2va calls appear" true (contains ~needle:"ra2va" generated);
  check_bool "pointerAssignment call appears" true
    (contains ~needle:"pointerAssignment" generated)

let test_codegen_nothing_with_volatile_heap () =
  let program = Parser.parse_program append_source in
  let generated = Codegen.generated_source ~heap_relative:false program in
  check_bool "no checks with a DRAM heap" false
    (contains ~needle:"determineY" generated
    || contains ~needle:"pointerAssignment" generated)

let test_codegen_resolved_sites_unchecked () =
  (* array_sum is fully resolved: conversions may appear but no dynamic
     determineY checks. *)
  let generated = Codegen.generated_source (Corpus.find "array_sum") in
  check_bool "no dynamic checks in resolved program" false
    (contains ~needle:"determineY" generated)

(* --- fuzz: random expressions survive print -> parse -> print ------------------ *)

let gen_expr : Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map Ast.int_ (int_bound 100);
        map Ast.var (oneofl [ "a"; "b"; "p"; "q" ]);
        return Ast.null;
      ]
  in
  let ty_gen =
    oneofl
      [ Ast.Tint; Ast.Tptr Ast.Tint; Ast.Tptr (Ast.Tstruct "node"); Ast.Tfunptr ]
  in
  let binop_gen =
    oneofl
      [
        Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.Lt; Ast.Gt; Ast.Le;
        Ast.Ge; Ast.Eq; Ast.Ne; Ast.And; Ast.Or; Ast.Band; Ast.Bor; Ast.Bxor;
        Ast.Shl; Ast.Shr;
      ]
  in
  fix
    (fun self n ->
      if n <= 0 then leaf
      else
        let sub = self (n / 2) in
        oneof
          [
            leaf;
            map2 (fun op (a, b) -> Ast.binop op a b) binop_gen (pair sub sub);
            map (fun a -> Ast.unop Ast.Not a) sub;
            map (fun a -> Ast.unop Ast.Bnot a) sub;
            map (fun a -> Ast.unop Ast.Neg a) sub;
            map Ast.deref sub;
            map Ast.addr sub;
            map2 Ast.index sub sub;
            map (fun a -> Ast.arrow a "next") sub;
            map2 (fun a b -> Ast.assign a b) sub sub;
            map2 (fun c (a, b) -> Ast.cond c a b) sub (pair sub sub);
            map2 (fun ty a -> Ast.cast ty a) ty_gen sub;
            map Ast.sizeof ty_gen;
            map (fun args -> Ast.call "f" args) (list_size (int_bound 3) sub);
            map2 (fun callee args -> Ast.call_ptr callee args) sub
              (list_size (int_bound 2) sub);
            map Ast.pre_incr sub;
            map Ast.post_decr sub;
          ])
    6

let prop_print_parse_print_stable =
  QCheck.Test.make ~name:"random expressions: print/parse/print is stable"
    ~count:500
    (QCheck.make ~print:Pretty.expr_text gen_expr)
    (fun e ->
      let text1 = Pretty.expr_text e in
      match Parser.parse_expr_string text1 with
      | reparsed -> Pretty.expr_text reparsed = text1
      | exception Parser.Parse_error (m, l, c) ->
          QCheck.Test.fail_reportf "parse error at %d:%d: %s in %S" l c m text1)

let qsuite =
  List.map QCheck_alcotest.to_alcotest [ prop_print_parse_print_stable ]

let () =
  Alcotest.run "parser"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lex_basic;
          Alcotest.test_case "operators" `Quick test_lex_operators;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "errors" `Quick test_lex_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "postfix chains" `Quick test_parse_postfix_chains;
          Alcotest.test_case "casts" `Quick test_parse_casts;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "struct program" `Quick
            test_parse_whole_struct_program;
          Alcotest.test_case "for/break/continue" `Quick
            test_parse_for_break_continue;
          Alcotest.test_case "function pointers" `Quick
            test_parse_function_pointers;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "corpus print-parse-print" `Quick
            test_roundtrip_corpus;
          Alcotest.test_case "parsed behaviour" `Quick
            test_parsed_program_behaviour;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "checks inserted" `Quick
            test_codegen_inserts_checks;
          Alcotest.test_case "volatile heap clean" `Quick
            test_codegen_nothing_with_volatile_heap;
          Alcotest.test_case "resolved unchecked" `Quick
            test_codegen_resolved_sites_unchecked;
        ] );
      ("fuzz", qsuite);
    ]
