(** Pretty-printer: mini-C AST back to C-like surface syntax, with
    precedence-aware parenthesization so that [parse (print p)] is
    structurally identical to [p].  Also displays the Fig. 9-style
    instrumented code the compiler pass produces. *)

val expr_text : Ast.expr -> string
val program_text : Ast.program -> string
