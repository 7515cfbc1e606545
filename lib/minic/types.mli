(** Static typing for mini-C: sizes, struct layouts, expression typing.
    Every scalar is one 64-bit word, so [sizeof(int) = sizeof(T* ) = 8]
    and struct fields are word-aligned — matching the simulated
    machine. *)

open Ast

exception Type_error of string

type env = {
  structs : (string, struct_def) Hashtbl.t;
  funcs : (string, func) Hashtbl.t;
  mutable vars : (string * ty) list;  (** innermost scope first *)
}

val struct_def : env -> string -> struct_def
val sizeof : env -> ty -> int

val field_info : env -> string -> string -> int * ty
(** Byte offset and type of a struct field. *)

val is_ptr : ty -> bool
(** Pointer-like (including [Tfunptr]): stored with pointer-store
    semantics. *)

val elem_ty : ty -> ty

val type_of : env -> expr -> ty
(** Arrays decay to pointers in value contexts, as in C. *)

val lvalue_type : env -> expr -> ty
(** No array decay.  @raise Type_error on non-lvalues. *)

val check_program : program -> env
(** Well-formedness: every expression types.  Returns the environment
    for later queries. *)
