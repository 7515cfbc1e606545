(** First-class-module registry of the benchmark structures, in the
    order of Table III.  LL is not a key-value mapping and is driven by
    its own harness, so it is exposed separately. *)

module Hash : Intf.ORDERED_MAP
module Rb : Intf.ORDERED_MAP
module Splay : Intf.ORDERED_MAP
module Avl : Intf.ORDERED_MAP
module Sg : Intf.ORDERED_MAP

(** Extended set: structures beyond Table III (skip list, B-tree map,
    radix tree), runnable through the same harness. *)
module Skip : Intf.ORDERED_MAP
module Btree : Intf.ORDERED_MAP
module Radix : Intf.ORDERED_MAP

val maps : Intf.ordered_map list
val extended_maps : Intf.ordered_map list
val all_maps : Intf.ordered_map list

val find_map : string -> Intf.ordered_map
(** Case-insensitive lookup.  @raise Invalid_argument on unknown names. *)

val benchmark_names : string list
(** All six benchmark names, LL included. *)
