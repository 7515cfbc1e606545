(* FliT-style per-object flush marking (see PAPERS.md): every
   persistent object carries a *volatile* counter of in-flight writers.
   A writer increments the counter, performs its persistent writes,
   flushes them, then decrements.  A reader that needs the object
   durable before acting on it checks the counter: zero means every
   write it can observe has already been flushed by its writer, so the
   reader's flush is *elided*; non-zero means a concurrent writer may
   still hold the line dirty, so the flush is *issued*.

   The table is volatile by design — it vanishes on crash — which is
   sound because a zero count only ever elides flushes some writer has
   already performed; it never weakens the writer-side protocol that
   durable linearizability rests on.

   The counter read-modify-writes model hardware atomics: they touch no
   µ-event between the load and the store, so the multi-core scheduler
   cannot interleave another core inside them. *)

module Runtime = Nvml_runtime.Runtime
module Ptr = Nvml_core.Ptr

type t = {
  counts : (Ptr.t, int) Hashtbl.t; (* object -> in-flight writers *)
  mutable writer_flushes : int;
  mutable issued : int; (* reader flushes issued (writer in flight) *)
  mutable elided : int; (* reader flushes elided (object quiescent) *)
}

let create () =
  {
    counts = Hashtbl.create 64;
    writer_flushes = 0;
    issued = 0;
    elided = 0;
  }

(* Modeled instruction costs. *)
let mark_instrs = 2 (* the marking atomic increment / decrement *)
let check_instrs = 1 (* the reader's counter load + test *)
let flush_instrs = 4 (* a flush + its ordering fence *)

let count t (p : Ptr.t) =
  match Hashtbl.find_opt t.counts p with Some n -> n | None -> 0

let writer_begin rt t (p : Ptr.t) =
  Runtime.instr rt mark_instrs;
  Hashtbl.replace t.counts p (count t p + 1)

(* Under a relaxed persistency model the per-store flush+fence is the
   cost the model exists to remove: durability moves to the epoch
   drain, so the flush instructions are elided entirely — this is the
   epoch model's cycle-savings story.  Under the eager model the charge
   is unchanged. *)
let writer_flush rt t (_ : Ptr.t) =
  if not (Runtime.persist_relaxed rt) then begin
    Runtime.instr rt flush_instrs;
    t.writer_flushes <- t.writer_flushes + 1
  end

let writer_end rt t (p : Ptr.t) =
  Runtime.instr rt mark_instrs;
  match count t p - 1 with
  | 0 -> Hashtbl.remove t.counts p
  | n when n > 0 -> Hashtbl.replace t.counts p n
  | _ -> invalid_arg "Flit.writer_end: unbalanced"

let reader_sync rt t (p : Ptr.t) =
  Runtime.instr rt check_instrs;
  if count t p > 0 then begin
    if not (Runtime.persist_relaxed rt) then begin
      Runtime.instr rt flush_instrs;
      t.issued <- t.issued + 1
    end
  end
  else t.elided <- t.elided + 1

let pending t = Hashtbl.length t.counts
let writer_flushes t = t.writer_flushes
let issued t = t.issued
let elided t = t.elided
