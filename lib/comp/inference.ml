(* The compiler-based method of Section V-B: a whole-program dataflow
   inference of pointer *format* properties over mini-C, used to elide
   dynamic checks at sites whose operands are statically resolved.

   The lattice, per pointer-valued variable or expression:

       Bottom  —  no information yet (unreached)
       Va      —  always a virtual address (e.g. & of a local)
       Rel     —  always a relative address (e.g. a pmalloc result)
       Either  —  both reach it: a dynamic check is required

   The pass starts from the marked allocator functions (malloc/pmalloc
   return relative addresses when the heap is persistent) and address-of
   operations (virtual), and propagates through assignments, loads and
   calls to a fixpoint.  Function parameters join the properties of all
   call-site arguments — the interprocedural flow whose imprecision
   leaves the ~42 % of dynamic checks the paper reports. *)

module Ast = Nvml_minic.Ast
module Types = Nvml_minic.Types
open Ast

(* [Ast] redefines comparison symbols as expression builders; restore
   the stdlib operators for this module's own logic. *)
let ( < ) = Stdlib.( < )
let ( = ) = Stdlib.( = )
let ( <> ) = Stdlib.( <> )
let ( && ) = Stdlib.( && )
let ( || ) = Stdlib.( || )

type prop = Bottom | Va | Rel | Either

let join a b =
  match (a, b) with
  | Bottom, x | x, Bottom -> x
  | Va, Va -> Va
  | Rel, Rel -> Rel
  | _ -> Either

type result = {
  expr_props : (int, prop) Hashtbl.t; (* pointer-typed expression nodes *)
  needs_check : (int, bool) Hashtbl.t; (* pointer-op site -> dynamic check? *)
  total_sites : int;
  checked_sites : int;
}

let fraction_checked r =
  if r.total_sites = 0 then 0.0
  else float_of_int r.checked_sites /. float_of_int r.total_sites

(* Statically resolved sites get [static = true] interpreter sites. *)
let plan r id =
  match Hashtbl.find_opt r.needs_check id with
  | Some needed -> not needed
  | None -> false

type state = {
  env : Types.env;
  heap_relative : bool; (* persistent heap: malloc returns Rel *)
  vars : (string * string, prop) Hashtbl.t; (* (function, var) -> prop *)
  returns : (string, prop) Hashtbl.t; (* function -> return prop *)
  expr_props : (int, prop) Hashtbl.t;
  mutable changed : bool;
}

let get_var st ~func v =
  Option.value ~default:Bottom (Hashtbl.find_opt st.vars (func, v))

let set_var st ~func v p =
  let old = get_var st ~func v in
  let p' = join old p in
  if p' <> old then begin
    Hashtbl.replace st.vars (func, v) p';
    st.changed <- true
  end

let get_return st f = Option.value ~default:Bottom (Hashtbl.find_opt st.returns f)

let set_return st f p =
  let old = get_return st f in
  let p' = join old p in
  if p' <> old then begin
    Hashtbl.replace st.returns f p';
    st.changed <- true
  end

let record st (e : expr) p =
  let old = Option.value ~default:Bottom (Hashtbl.find_opt st.expr_props e.id) in
  let p' = join old p in
  if p' <> old then Hashtbl.replace st.expr_props e.id p'

(* Property of a pointer value loaded from memory: a cell reached
   through a known-relative address is in NVM, where stored pointers
   are kept in relative format; anything else is unknown — unless the
   heap is volatile, in which case no relative pointer can exist and
   every load yields a virtual address. *)
let loaded_prop st addr_prop =
  if not st.heap_relative then
    match addr_prop with Bottom -> Bottom | Va | Rel | Either -> Va
  else match addr_prop with Rel -> Rel | Bottom -> Bottom | Va | Either -> Either

(* One pass over an expression; returns its format property when the
   expression has pointer type (Va/Rel/Either), or Bottom otherwise. *)
let rec flow st ~func ~tenv (e : expr) : prop =
  let ty = Types.type_of tenv e in
  let p =
    match e.e with
    | EInt _ -> if Types.is_ptr ty then Either else Bottom
    | ENull -> Va (* the null pointer needs no conversion either way *)
    | ESizeof _ -> Bottom
    | EVar v ->
        if not (Types.is_ptr ty) then Bottom
        else if
          (not (List.mem_assoc v tenv.Types.vars))
          && Hashtbl.mem st.env.Types.funcs v
        then
          (* a bare function name: its code cell lives in the heap *)
          if st.heap_relative then Rel else Va
        else get_var st ~func v
    | EUnop (_, a) ->
        ignore (flow st ~func ~tenv a);
        Bottom
    | EBinop (op, a, b) -> (
        let pa = flow st ~func ~tenv a in
        let pb = flow st ~func ~tenv b in
        match op with
        | Add | Sub when Types.is_ptr ty ->
            (* pointer arithmetic preserves the operand's format *)
            join pa pb
        | _ -> Bottom)
    | EAssign (lv, rhs) ->
        let pr = flow st ~func ~tenv rhs in
        flow_lvalue_store st ~func ~tenv lv pr;
        if Types.is_ptr ty then assigned_prop lv pr else Bottom
    | EDeref a ->
        let pa = flow st ~func ~tenv a in
        if Types.is_ptr ty then loaded_prop st pa else Bottom
    | EAddr lv ->
        ignore (flow_lvalue st ~func ~tenv lv);
        Va
    | EIndex (a, i) ->
        let pa = flow st ~func ~tenv a in
        ignore (flow st ~func ~tenv i);
        if Types.is_ptr ty then loaded_prop st pa else Bottom
    | EArrow (a, _) ->
        let pa = flow st ~func ~tenv a in
        if Types.is_ptr ty then loaded_prop st pa else Bottom
    | ECallPtr (callee, args) ->
        ignore (flow st ~func ~tenv callee);
        List.iter (fun a -> ignore (flow st ~func ~tenv a)) args;
        Bottom
    | ECall (name, args) when List.assoc_opt name tenv.Types.vars = Some Tfunptr
      ->
        (* indirect call through a function-pointer variable *)
        List.iter (fun a -> ignore (flow st ~func ~tenv a)) args;
        Bottom
    | ECall (name, args) -> (
        let arg_props = List.map (flow st ~func ~tenv) args in
        match name with
        | "malloc" | "pmalloc" -> if st.heap_relative then Rel else Va
        | "free" | "pfree" | "print" -> Bottom
        | _ -> (
            match Hashtbl.find_opt st.env.Types.funcs name with
            | Some callee ->
                List.iter2
                  (fun (pname, pty) ap ->
                    if Types.is_ptr pty then
                      set_var st ~func:name pname
                        (if ap = Bottom then Bottom else ap))
                  callee.params arg_props;
                if Types.is_ptr ty then get_return st name else Bottom
            | None -> if Types.is_ptr ty then Either else Bottom))
    | ECast (cty, a) ->
        let pa = flow st ~func ~tenv a in
        if Types.is_ptr cty then
          if Types.is_ptr (Types.type_of tenv a) then pa
          else if (match a.e with EInt 0L -> true | _ -> false) then Va
          else Either
        else Bottom
    | ECond (c, a, b) ->
        ignore (flow st ~func ~tenv c);
        let pa = flow st ~func ~tenv a in
        let pb = flow st ~func ~tenv b in
        if Types.is_ptr ty then join pa pb else Bottom
    | EIncr { lv; _ } ->
        let p = flow_lvalue st ~func ~tenv lv in
        (* value written back has the same format *)
        flow_lvalue_store st ~func ~tenv lv p;
        p
  in
  if Types.is_ptr ty then record st e p;
  p

(* Property of the value currently held by an lvalue. *)
and flow_lvalue st ~func ~tenv (e : expr) : prop =
  match e.e with
  | EVar v -> get_var st ~func v
  | EDeref a -> loaded_prop st (flow st ~func ~tenv a)
  | EIndex (a, i) ->
      ignore (flow st ~func ~tenv i);
      loaded_prop st (flow st ~func ~tenv a)
  | EArrow (a, _) -> loaded_prop st (flow st ~func ~tenv a)
  | _ -> Either

(* Record the effect of storing a pointer of property [p] into [lv]. *)
and flow_lvalue_store st ~func ~tenv (lv : expr) (p : prop) =
  match lv.e with
  | EVar v ->
      if Types.is_ptr (Types.lvalue_type tenv lv) then
        (* stored into a DRAM local: materializes as a virtual address
           (pdy = pxr converts), unless nothing is known yet *)
        set_var st ~func v (match p with Bottom -> Bottom | _ -> Va)
  | EDeref a | EIndex (a, _) | EArrow (a, _) ->
      ignore (flow st ~func ~tenv a)
  | _ -> ()

(* The property an EVar lvalue holds *after* the assignment. *)
and assigned_prop (lv : expr) (p : prop) =
  match lv.e with EVar _ -> (match p with Bottom -> Bottom | _ -> Va) | _ -> p

let flow_stmt st ~func ~tenv_ref stmt =
  let tenv = !tenv_ref in
  match stmt with
  | SExpr e -> ignore (flow st ~func ~tenv e)
  | SDecl (v, ty, init) ->
      (match init with
      | Some e ->
          let p = flow st ~func ~tenv e in
          if Types.is_ptr ty then
            set_var st ~func v (match p with Bottom -> Bottom | _ -> Va)
      | None -> ());
      tenv_ref := { tenv with Types.vars = (v, ty) :: tenv.Types.vars }
  | SIf (c, _, _) | SWhile (c, _) -> ignore (flow st ~func ~tenv c)
  | SFor _ -> () (* handled entirely by flow_stmts: the init scopes
                    the condition and step *)
  | SBreak | SContinue -> ()
  | SReturn (Some e) -> set_return st func (flow st ~func ~tenv e)
  | SReturn None -> ()

(* Walk a function body, maintaining the type scope. *)
let rec flow_stmts st ~func ~tenv_ref stmts =
  List.iter
    (fun s ->
      flow_stmt st ~func ~tenv_ref s;
      match s with
      | SIf (_, a, b) ->
          let saved = !tenv_ref in
          flow_stmts st ~func ~tenv_ref a;
          tenv_ref := saved;
          flow_stmts st ~func ~tenv_ref b;
          tenv_ref := saved
      | SWhile (_, body) ->
          let saved = !tenv_ref in
          flow_stmts st ~func ~tenv_ref body;
          tenv_ref := saved
      | SFor (init, c, step, body) ->
          let saved = !tenv_ref in
          Option.iter (flow_stmt st ~func ~tenv_ref) init;
          let tenv = !tenv_ref in
          Option.iter (fun e -> ignore (flow st ~func ~tenv e)) c;
          Option.iter (fun e -> ignore (flow st ~func ~tenv e)) step;
          flow_stmts st ~func ~tenv_ref body;
          tenv_ref := saved
      | SExpr _ | SDecl _ | SReturn _ | SBreak | SContinue -> ())
    stmts

let run_fixpoint st (p : program) =
  let continue = ref true in
  let rounds = ref 0 in
  while !continue && !rounds < 50 do
    incr rounds;
    st.changed <- false;
    List.iter
      (fun f ->
        let tenv_ref =
          ref { st.env with Types.vars = f.params }
        in
        (* Body statements may loop; run the body flow twice per round
           so loop-carried properties stabilize quickly. *)
        flow_stmts st ~func:f.fname ~tenv_ref f.body;
        let tenv_ref = ref { st.env with Types.vars = f.params } in
        flow_stmts st ~func:f.fname ~tenv_ref f.body)
      p.funcs;
    continue := st.changed
  done

(* --- site classification ------------------------------------------------ *)

(* After the fixpoint, walk the program once more and classify every
   pointer-operation site: does it still need a dynamic check? *)
let classify st (p : program) : result =
  let needs_check = Hashtbl.create 64 in
  let total = ref 0 and checked = ref 0 in
  let prop_of (e : expr) =
    Option.value ~default:Either (Hashtbl.find_opt st.expr_props e.id)
  in
  let site id needed =
    incr total;
    if needed then incr checked;
    Hashtbl.replace needs_check id needed
  in
  let unresolved = function Either | Bottom -> true | Va | Rel -> false in
  let visit_func (f : func) =
    let tenv_ref = ref { st.env with Types.vars = f.params } in
    let rec visit_expr (e : expr) =
      let tenv = !tenv_ref in
      (match e.e with
      | EDeref a -> site e.id (unresolved (prop_of a))
      | EIndex (a, _) ->
          if Types.is_ptr (Types.type_of tenv a) then
            site e.id (unresolved (prop_of a))
      | EArrow (a, _) -> site e.id (unresolved (prop_of a))
      | EAssign (lv, rhs) ->
          if Types.is_ptr (Types.lvalue_type tenv lv) then begin
            (* pointerAssignment: resolved only when both the cell's
               location and the value's format are known. *)
            let dst_known =
              (not st.heap_relative)
              ||
              match lv.e with
              | EVar _ -> true (* stack slot: DRAM *)
              | EDeref a | EIndex (a, _) | EArrow (a, _) ->
                  prop_of a = Rel (* known-NVM cell *)
              | _ -> false
            in
            site e.id (not (dst_known && not (unresolved (prop_of rhs))))
          end
      | EBinop ((Lt | Gt | Le | Ge | Eq | Ne | Sub), a, b)
        when Types.is_ptr (Types.type_of tenv a)
             || Types.is_ptr (Types.type_of tenv b) ->
          site e.id (unresolved (prop_of a) || unresolved (prop_of b))
      | ECast (Tint, a) when Types.is_ptr (Types.type_of tenv a) ->
          site e.id (unresolved (prop_of a))
      | EUnop (Not, a) when Types.is_ptr (Types.type_of tenv a) ->
          site e.id (unresolved (prop_of a))
      | ECallPtr (callee, _) -> site e.id (unresolved (prop_of callee))
      | ECall (name, _)
        when List.assoc_opt name tenv.Types.vars = Some Tfunptr ->
          site e.id (unresolved (get_var st ~func:f.fname name))
      | _ -> ());
      iter_children visit_expr e
    and iter_children f (e : expr) =
      match e.e with
      | EInt _ | ENull | EVar _ | ESizeof _ -> ()
      | EUnop (_, a) | EDeref a | EAddr a | ECast (_, a) | EArrow (a, _) -> f a
      | EBinop (_, a, b) | EAssign (a, b) | EIndex (a, b) ->
          f a;
          f b
      | ECond (a, b, c) ->
          f a;
          f b;
          f c
      | ECall (_, args) -> List.iter f args
      | ECallPtr (callee, args) ->
          f callee;
          List.iter f args
      | EIncr { lv; _ } -> f lv
    in
    let rec visit_stmts stmts =
      List.iter
        (fun s ->
          (match s with
          | SExpr e -> visit_expr e
          | SDecl (v, ty, init) ->
              (match init with Some e -> visit_expr e | None -> ());
              tenv_ref :=
                { !tenv_ref with Types.vars = (v, ty) :: !tenv_ref.Types.vars }
          | SIf (c, _, _) | SWhile (c, _) -> visit_expr c
          | SFor _ -> () (* scoped below, after the init *)
          | SBreak | SContinue -> ()
          | SReturn (Some e) -> visit_expr e
          | SReturn None -> ());
          match s with
          | SIf (_, a, b) ->
              let saved = !tenv_ref in
              visit_stmts a;
              tenv_ref := saved;
              visit_stmts b;
              tenv_ref := saved
          | SWhile (_, body) ->
              let saved = !tenv_ref in
              visit_stmts body;
              tenv_ref := saved
          | SFor (init, c, step, body) ->
              let saved = !tenv_ref in
              (match init with
              | Some (SDecl (v, ty, iexpr)) ->
                  (match iexpr with Some e -> visit_expr e | None -> ());
                  tenv_ref :=
                    { !tenv_ref with
                      Types.vars = (v, ty) :: !tenv_ref.Types.vars }
              | Some s -> visit_stmts [ s ]
              | None -> ());
              Option.iter visit_expr c;
              Option.iter visit_expr step;
              visit_stmts body;
              tenv_ref := saved
          | SExpr _ | SDecl _ | SReturn _ | SBreak | SContinue -> ())
        stmts
    in
    visit_stmts f.body
  in
  List.iter visit_func p.funcs;
  {
    expr_props = st.expr_props;
    needs_check;
    total_sites = !total;
    checked_sites = !checked;
  }

let infer ?(heap_relative = true) (p : program) : result =
  let env = Types.check_program p in
  let st =
    {
      env;
      heap_relative;
      vars = Hashtbl.create 64;
      returns = Hashtbl.create 16;
      expr_props = Hashtbl.create 256;
      changed = false;
    }
  in
  run_fixpoint st p;
  classify st p
