(** FliT-style per-object flush marking: a volatile table of in-flight
    writer counts that lets readers elide flushes on quiescent objects.

    Writer protocol: {!writer_begin}, persistent writes,
    {!writer_flush}, {!writer_end}.  Reader protocol: {!reader_sync}
    before acting on the object — issues a flush only when a writer is
    in flight, elides it otherwise.  The table vanishes on crash, which
    is sound: a zero count only elides flushes a writer already
    performed.

    The counter updates model hardware atomics (no µ-event between load
    and store, so the multi-core scheduler cannot split them). *)

module Runtime = Nvml_runtime.Runtime
module Ptr = Nvml_core.Ptr

type t

val create : unit -> t
val writer_begin : Runtime.t -> t -> Ptr.t -> unit
val writer_flush : Runtime.t -> t -> Ptr.t -> unit
val writer_end : Runtime.t -> t -> Ptr.t -> unit

val reader_sync : Runtime.t -> t -> Ptr.t -> unit
(** Make the object durable from the reader's side: flush if a writer
    is in flight, elide otherwise. *)

val count : t -> Ptr.t -> int
(** In-flight writers currently marked on the object. *)

val pending : t -> int
(** Objects with a non-zero count (0 at quiescence). *)

val writer_flushes : t -> int
val issued : t -> int
val elided : t -> int
