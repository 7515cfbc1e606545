(** The full C11 pointer-operation semantics under user-transparent
    persistent references — every row of the paper's Fig. 4.

    Each operation accepts pointer values in either format and produces
    the result ISO C11 specifies for the corresponding operation on
    plain pointers, resolving format differences internally exactly
    where Fig. 4's filled boxes place the conversions.  Conversions are
    counted in the {!Xlate.counters}.  The rows with no operation here
    reduce to ones that have one: [p = q] is
    {!Checks.pointer_assignment}, [p += i] and [p -= i] store back
    {!add_int} and {!sub_int}, and [~p] negates {!cast_ptr_to_int}. *)

type comparison = Lt | Gt | Le | Ge | Eq | Ne

val eval_comparison : comparison -> int -> bool
(** Interpret a [compare]-style result under a comparison operator. *)

(** {1 Cast operators} *)

val cast_ptr : Ptr.t -> Ptr.t
(** [(T* )p] — value unchanged, format preserved. *)

val cast_int_to_ptr : int64 -> Ptr.t
(** [(T* )i] — bit pattern reinterpreted. *)

val cast_ptr_to_int : Xlate.t -> Ptr.t -> int64
(** [(I)p] — a persistent pointer exposes its virtual address. *)

(** {1 Unary operators} *)

val incr : Ptr.t -> elem_size:int -> Ptr.t
val decr : Ptr.t -> elem_size:int -> Ptr.t

val logical_not : Ptr.t -> bool
(** [!p] — format-agnostic: a relative pointer is never null. *)

val deref_address : Xlate.t -> Ptr.t -> int64
(** [*p] — the virtual address issued to the memory system. *)

val sizeof_ptr : int
val alignof_ptr : int

(** {1 Additive operators} *)

val add_int : Ptr.t -> int64 -> elem_size:int -> Ptr.t
val sub_int : Ptr.t -> int64 -> elem_size:int -> Ptr.t

val diff : Xlate.t -> Ptr.t -> Ptr.t -> elem_size:int -> int64
(** [p - q] in elements.  Same-pool relative pairs subtract raw
    offsets without translation. *)

(** {1 Relational and equality operators} *)

val compare_ptr : Xlate.t -> comparison -> Ptr.t -> Ptr.t -> bool
(** Mixed formats are normalized to virtual addresses; same-pool
    relative pairs compare by offset; NULL tests are raw. *)

val equal_ptr : Xlate.t -> Ptr.t -> Ptr.t -> bool

(** {1 Logical / conditional operators} *)

val is_true : Ptr.t -> bool

(** {1 Postfix operators} *)

val index_address : Xlate.t -> Ptr.t -> int64 -> elem_size:int -> int64
(** Address of [p[i]]. *)

val member_address : Xlate.t -> Ptr.t -> field_offset:int -> int64
(** Address of [p->f]. *)

val call_target : Xlate.t -> Ptr.t -> int64
(** Code address of a call through a (possibly relative) function
    pointer. *)
