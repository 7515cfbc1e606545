(* The one hit/miss statistics record shared by every cache-like
   structure in the simulator (data caches, TLBs, POLB, VALB, the
   Vspace translation cache).  Before this module each structure kept
   its own pair of mutable counters with slightly different accessors;
   normalizing them gives the telemetry layer a single shape to
   publish. *)

module Hit_miss = struct
  type t = { mutable hits : int; mutable misses : int }

  let create () = { hits = 0; misses = 0 }
  let hit t = t.hits <- t.hits + 1
  let miss t = t.misses <- t.misses + 1
  let hits t = t.hits
  let misses t = t.misses
  let accesses t = t.hits + t.misses

  let hit_rate t =
    let total = accesses t in
    if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total
end
