(** The Hash benchmark: chained hash table with doubling resize, laid out in simulated
    memory and driven through the runtime pointer API so every access
    flows through the timing model. *)

include Intf.ORDERED_MAP
