(** The compiler-based method of Section V-B: whole-program dataflow
    inference of pointer-format properties over mini-C, used to elide
    dynamic checks at statically resolved sites.

    Lattice: [Bottom] (unreached) ⊑ [Va]/[Rel] ⊑ [Either].  The pass
    seeds from the marked allocator functions and address-of operations
    and iterates assignments, loads and interprocedural parameter joins
    to a fixpoint; pointers loaded out of possibly-NVM cells come back
    [Either], which is what keeps traversal code checked. *)

module Ast = Nvml_minic.Ast

type prop = Bottom | Va | Rel | Either

val join : prop -> prop -> prop

type result = {
  expr_props : (int, prop) Hashtbl.t;
      (** property per pointer-typed expression node *)
  needs_check : (int, bool) Hashtbl.t;
      (** pointer-op site → does it still need a dynamic check? *)
  total_sites : int;
  checked_sites : int;
}

val fraction_checked : result -> float

val plan : result -> int -> bool
(** The interpreter plan: [true] = statically resolved (site is check
    free). *)

val infer : ?heap_relative:bool -> Ast.program -> result
(** [heap_relative] (default true) marks malloc as returning relative
    addresses — the persistent-heap configuration. *)
