(** The Radix extended-set structure: a 16-ary radix tree over 64-bit keys,
    laid out in simulated memory and driven through the runtime pointer
    API. *)

include Intf.ORDERED_MAP
