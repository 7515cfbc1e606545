(** The SG benchmark: scapegoat tree (alpha = 0.7), laid out in simulated
    memory and driven through the runtime pointer API so every access
    flows through the timing model.  Built on {!Bst}. *)

include Intf.ORDERED_MAP
