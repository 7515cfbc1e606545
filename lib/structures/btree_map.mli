(** The BTree extended-set structure: a CLRS-style B-tree map of minimum degree 4,
    laid out in simulated memory and driven through the runtime pointer
    API. *)

include Intf.ORDERED_MAP
