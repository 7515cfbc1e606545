(* Address translation between the two pointer formats.

   Translation needs the kernel's view of persistent pools: the POT maps
   a pool ID to its current virtual base (backing [ra2va]) and the VAT
   maps a virtual address to the pool covering it (backing [va2ra]).
   The pool manager in [nvml_pool] supplies these as a first-class
   [provider] so this core library stays independent of it. *)

module Layout = Nvml_simmem.Layout

type provider = {
  pool_base : int -> int64 option;
      (* POT lookup: pool id -> mapped virtual base, None if detached *)
  pool_of_va : int64 -> (int * int64) option;
      (* VAT lookup: virtual address -> (pool id, pool base) of the pool
         whose mapping covers it, None if the VA is in no pool *)
  generation : int ref;
      (* bumped by the provider on every mapping change (create, open,
         detach, crash); lets translation memoize lookups safely *)
}

(* Conversion/check accounting, reported in Table V. *)
type counters = {
  mutable ra2va : int; (* relative -> absolute conversions *)
  mutable va2ra : int; (* absolute -> relative conversions *)
  mutable dynamic_checks : int; (* software format/location checks *)
  mutable volatile_escapes : int; (* DRAM VAs stored into NVM unconverted *)
}

let fresh_counters () =
  { ra2va = 0; va2ra = 0; dynamic_checks = 0; volatile_escapes = 0 }

type t = {
  provider : provider;
  counters : counters;
  (* One-entry pool -> base memo over [provider.pool_base].  Pointer
     chases hit the same pool again and again, so this caches the last
     successful POT lookup.  A hit also requires the provider's mapping
     generation to be unchanged, so remaps and detaches (including ones
     done directly on the pool manager) invalidate it automatically.
     [memo_pool = -1] means empty.  Counters are never short-circuited —
     they are functional outputs. *)
  mutable memo_pool : int;
  mutable memo_base : int64;
  mutable memo_gen : int;
}

let make provider =
  {
    provider;
    counters = fresh_counters ();
    memo_pool = -1;
    memo_base = 0L;
    memo_gen = -1;
  }

let counters t = t.counters

exception Pool_detached of int
(* ra2va on a pointer whose pool is no longer mapped (paper, Fig. 10). *)

exception Not_in_pool of int64
(* va2ra on an NVM virtual address not covered by any pool mapping. *)

(* Relative -> virtual.  NULL converts to NULL (C11: null pointers stay
   null under conversion); virtual-format input passes through. *)
let ra2va t (p : Ptr.t) : int64 =
  if not (Ptr.is_relative p) then p
  else begin
    t.counters.ra2va <- t.counters.ra2va + 1;
    let pool = Ptr.pool_of p in
    if pool = t.memo_pool && !(t.provider.generation) = t.memo_gen then
      Int64.add t.memo_base (Ptr.offset_of p)
    else
      match t.provider.pool_base pool with
      | Some base ->
          t.memo_pool <- pool;
          t.memo_base <- base;
          t.memo_gen <- !(t.provider.generation);
          Int64.add base (Ptr.offset_of p)
      | None -> raise (Pool_detached pool)
  end

(* Virtual -> relative.  A DRAM virtual address has no relative form;
   the paper's design stores it unchanged (sound within a run, dangling
   across restarts, exactly like storing a stack address in C).  We count
   the event so experiments can report it. *)
let va2ra t (p : Ptr.t) : Ptr.t =
  if Ptr.is_relative p then p
  else if Ptr.is_null p then Ptr.null
  else
    match Layout.region_of_va p with
    | Layout.Dram ->
        t.counters.volatile_escapes <- t.counters.volatile_escapes + 1;
        p
    | Layout.Nvm -> (
        t.counters.va2ra <- t.counters.va2ra + 1;
        match t.provider.pool_of_va p with
        | Some (pool, base) ->
            Ptr.make_relative ~pool ~offset:(Int64.sub p base)
        | None -> raise (Not_in_pool p))
