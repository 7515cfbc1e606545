(* The common shape of the six benchmark data structures (Table III).
   Each is a from-scratch implementation laid out in simulated memory
   and driven through the runtime's pointer API, so every node access,
   pointer check and conversion flows through the timing model.

   Structures store a small header object in their region; for
   persistent instances the header is anchored in the pool's root slot,
   so [attach] can re-find a structure after a crash. *)

module type ORDERED_MAP = sig
  type t

  val name : string
  (* Short benchmark name, e.g. "RB". *)

  val description : string

  val node_size : int
  (* Bytes per node (Table III). *)

  val create : Nvml_runtime.Runtime.t -> Nvml_runtime.Runtime.region -> t
  (* Allocate an empty structure with its header in the given region. *)

  val header : t -> Nvml_core.Ptr.t
  (* The header object pointer (store it in a pool root to persist). *)

  val attach : Nvml_runtime.Runtime.t -> Nvml_core.Ptr.t -> t
  (* Reconstruct a handle from a header pointer, e.g. after restart. *)

  val insert : t -> key:int64 -> value:int64 -> unit
  (* Insert or update the mapping for [key]. *)

  val find : t -> int64 -> int64 option

  val remove : t -> int64 -> bool
  (* Remove the mapping; returns whether the key was present. *)

  val size : t -> int

  val iter : t -> (key:int64 -> value:int64 -> unit) -> unit
  (* Visit all mappings (ascending key order for the trees). *)

  val check_invariants : t -> unit
  (* Raise [Failure] if a structural invariant is broken. *)
end

type ordered_map = (module ORDERED_MAP)
