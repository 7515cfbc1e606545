(* The full C11 pointer-operation semantics under user-transparent
   persistent references — every row of the paper's Fig. 4.

   Each operation accepts pointer values in either format and produces
   the result the ISO C11 standard specifies for the corresponding
   operation on plain pointers; the format differences are resolved
   internally by [Xlate] conversions exactly where the filled boxes of
   Fig. 4 place them.  Conversions are counted in the [Xlate.counters];
   dynamic-check accounting is layered on top by the runtime and the
   compiler pass, because whether a check is *executed* depends on what
   static inference resolved. *)

type comparison = Lt | Gt | Le | Ge | Eq | Ne

let eval_comparison op (c : int) =
  match op with
  | Lt -> c < 0
  | Gt -> c > 0
  | Le -> c <= 0
  | Ge -> c >= 0
  | Eq -> c = 0
  | Ne -> c <> 0

(* --- cast operators ------------------------------------------------- *)

(* (T* )p — pointer-to-pointer cast: value unchanged, format preserved. *)
let cast_ptr (p : Ptr.t) : Ptr.t = p

(* (T* )i — integer-to-pointer cast: bit pattern reinterpreted. *)
let cast_int_to_ptr (i : int64) : Ptr.t = i

(* (I)p — pointer-to-integer cast: a persistent pointer must expose its
   virtual address, not its relative bits, so that integer arithmetic on
   the result behaves as C11 prescribes (row "(I)pxr": ra2va first). *)
let cast_ptr_to_int (x : Xlate.t) (p : Ptr.t) : int64 = Xlate.ra2va x p

(* --- unary operators ------------------------------------------------ *)

(* ++p / --p / p++ / p-- with the element size of the pointed-to type.
   Raw arithmetic preserves the operand's format (Fig. 4). *)
let incr (p : Ptr.t) ~elem_size : Ptr.t = Ptr.add p (Int64.of_int elem_size)
let decr (p : Ptr.t) ~elem_size : Ptr.t = Ptr.sub p (Int64.of_int elem_size)

(* !p — logical negation; a relative pointer is never the null pointer
   (bit 63 is set), so raw zero-testing is correct in both formats. *)
let logical_not (p : Ptr.t) : bool = Ptr.is_null p

(* ~p is an integer operation on (I)p. *)
let bitwise_not (x : Xlate.t) (p : Ptr.t) : int64 =
  Int64.lognot (cast_ptr_to_int x p)

(* *p — the virtual address issued to the memory system (row "*pxr":
   ra2va before access). *)
let deref_address (x : Xlate.t) (p : Ptr.t) : int64 = Xlate.ra2va x p

(* sizeof p / alignof p are type-level and format-independent: a
   user-transparent persistent pointer is exactly one word. *)
let sizeof_ptr = 8
let alignof_ptr = 8

(* --- assignment operators ------------------------------------------- *)

(* p = q where p's cell lives at [dst] (either format): delegate to the
   Fig. 3 pointerAssignment check. *)
let assign = Checks.pointer_assignment

(* p += i / p -= i: raw, format-preserving (Fig. 4). *)
let add_assign (p : Ptr.t) (i : int64) ~elem_size : Ptr.t =
  Ptr.add p (Int64.mul i (Int64.of_int elem_size))

let sub_assign (p : Ptr.t) (i : int64) ~elem_size : Ptr.t =
  Ptr.sub p (Int64.mul i (Int64.of_int elem_size))

(* --- additive operators --------------------------------------------- *)

(* p + i, i + p, p - i: format-preserving offset arithmetic. *)
let add_int (p : Ptr.t) (i : int64) ~elem_size : Ptr.t =
  Ptr.add p (Int64.mul i (Int64.of_int elem_size))

let sub_int (p : Ptr.t) (i : int64) ~elem_size : Ptr.t =
  Ptr.sub p (Int64.mul i (Int64.of_int elem_size))

(* p - q in elements.  Fig. 4 converts mixed-format operands to virtual
   addresses; two relative pointers into the same pool may subtract raw
   offsets — same result, no translation (the "just an optimization"
   case of Section IV). *)
let diff (x : Xlate.t) (p : Ptr.t) (q : Ptr.t) ~elem_size : int64 =
  let bytes =
    if Ptr.same_pool p q then Int64.sub (Ptr.offset_of p) (Ptr.offset_of q)
    else Int64.sub (Xlate.ra2va x p) (Xlate.ra2va x q)
  in
  Int64.div bytes (Int64.of_int elem_size)

(* --- relational and equality operators ------------------------------ *)

(* p op q: C11 compares the addresses of the designated objects, so
   mixed formats are normalized to virtual addresses first (Fig. 4).
   Same-pool relative pairs compare by offset, translation-free.
   Comparisons against NULL are raw: the null pointer is all-zero in
   both interpretations and a relative pointer is never zero. *)
let compare_ptr (x : Xlate.t) op (p : Ptr.t) (q : Ptr.t) : bool =
  let c =
    if Ptr.is_null p || Ptr.is_null q then Int64.compare p q
    else if Ptr.same_pool p q then
      Int64.compare (Ptr.offset_of p) (Ptr.offset_of q)
    else Int64.compare (Xlate.ra2va x p) (Xlate.ra2va x q)
  in
  eval_comparison op c

let equal_ptr (x : Xlate.t) (p : Ptr.t) (q : Ptr.t) : bool =
  compare_ptr x Eq p q

(* --- logical and conditional operators ------------------------------ *)

(* p && e, p || e, p ? e1 : e2 all reduce to the truth value of p. *)
let is_true (p : Ptr.t) : bool = not (Ptr.is_null p)

(* --- postfix operators ---------------------------------------------- *)

(* p[i] — address of the i-th element: *(p + i). *)
let index_address (x : Xlate.t) (p : Ptr.t) (i : int64) ~elem_size : int64 =
  deref_address x (add_int p i ~elem_size)

(* p->f and dereference-then-member — address of a member at byte
   offset [field_offset]. *)
let member_address (x : Xlate.t) (p : Ptr.t) ~field_offset : int64 =
  deref_address x (Ptr.add p (Int64.of_int field_offset))

(* pxr(args) — calling through a function pointer first resolves the
   code address (row "pxr(argument list)"). *)
let call_target (x : Xlate.t) (p : Ptr.t) : int64 = Xlate.ra2va x p
