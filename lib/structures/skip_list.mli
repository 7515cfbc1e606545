(** The Skip extended-set structure: a skip list with deterministic tower heights,
    laid out in simulated memory and driven through the runtime pointer
    API. *)

include Intf.ORDERED_MAP
