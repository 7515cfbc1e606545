(* The VALB — virtual address lookaside buffer — of Section V-A: a small
   fully-associative range CAM that maps a virtual address to the
   persistent pool whose mapping covers it, accelerating va2ra in the
   storeP unit.  Each entry holds (PMO starting address, PMO size,
   PMO ID); a lookup finds the covering range, TCAM-style.  Misses are
   served by the VAW walking the VATB B-tree kernel table; the walker
   refills the buffer with the whole pool range.  The ways are held most
   recently used first, as a [Cache] set is: the valid entries a prefix,
   the invalid (pool -1) ways the tail, no per-way timestamps. *)

module Hit_miss = Nvml_telemetry.Stats.Hit_miss

(* Deliberately re-enable a fixed bug for the model-based fuzzer's
   [--break] self-test.  Never set outside that self-test. *)
type quirk =
  | Stale_invalidate_stamp
      (* pre-fix: [invalidate_pool]/[flush] cleared the pool id but left
         the way at its recency position, so a later refill evicted a
         valid entry while the invalidated way sat unused *)
  | Duplicate_insert
      (* pre-fix: [insert] never checked for an existing entry covering
         the same pool range, so repeated VAW refills let one pool
         occupy multiple CAM ways *)

type entry = { base : int64; size : int64; pool : int }

let invalid = { base = 0L; size = 0L; pool = -1 }

(* The entry a shootdown leaves under the quirk: neither a pool nor the
   invalid (-1) tail, so a refill carries it down like an entry. *)
let stale = { invalid with pool = -2 }

type t = {
  ways : entry array; (* most recent first; valid a prefix, -1 the tail *)
  mutable stale_stamp : bool;
  mutable dup_insert : bool;
  stats : Hit_miss.t;
}

let create ~entries =
  if entries <= 0 then invalid_arg "Valb.create: entries must be positive";
  {
    ways = Array.make entries invalid;
    stale_stamp = false;
    dup_insert = false;
    stats = Hit_miss.create ();
  }

let enable_quirk t = function
  | Stale_invalidate_stamp -> t.stale_stamp <- true
  | Duplicate_insert -> t.dup_insert <- true

(* Move [e] to way 0 over way [k], shifting ways 0 .. k-1 down one. *)
let to_front t k e =
  Array.blit t.ways 0 t.ways 1 k;
  t.ways.(0) <- e

(* Look up [va]; returns the pool id on a hit. *)
let lookup t va =
  let n = Array.length t.ways in
  let rec scan i =
    if i >= n || t.ways.(i).pool = -1 then begin
      Hit_miss.miss t.stats;
      None
    end
    else
      let e = t.ways.(i) in
      if e.pool >= 0 && va >= e.base && va < Int64.add e.base e.size then begin
        Hit_miss.hit t.stats;
        to_front t i e;
        Some e.pool
      end
      else scan (i + 1)
  in
  scan 0

(* Refill after a VAW walk.  A pool already resident refreshes its
   existing way (its range may have moved after a remap); otherwise
   fill the first invalid way, and only evict the LRU entry (the last
   way) when the CAM is full.  Without the dedup, repeated refills let
   one pool occupy several ways — deflating effective capacity while
   inflating the reported hit rate. *)
let insert t ~base ~size ~pool =
  let last = Array.length t.ways - 1 in
  let rec vacate i =
    if i = last then i
    else
      let p = t.ways.(i).pool in
      if p = -1 || (p = pool && not t.dup_insert) then i else vacate (i + 1)
  in
  to_front t (vacate 0) { base; size; pool }

(* Shootdown when a pool mapping disappears.  The less recent ways move
   up, so the freed way joins the invalid tail and is the next refill
   victim; under the quirk it keeps its place as a stale entry. *)
let invalidate_pool t pool =
  if t.stale_stamp then
    Array.iteri (fun i e -> if e.pool = pool then t.ways.(i) <- stale) t.ways
  else begin
    let kept = List.filter (fun e -> e.pool <> pool) (Array.to_list t.ways) in
    Array.fill t.ways 0 (Array.length t.ways) invalid;
    List.iteri (fun i e -> t.ways.(i) <- e) kept
  end

let flush t =
  if t.stale_stamp then
    Array.iteri (fun i e -> if e.pool >= 0 then t.ways.(i) <- stale) t.ways
  else Array.fill t.ways 0 (Array.length t.ways) invalid

(* Debug view for the model-based fuzzer: every valid entry as
   (base, size, pool), most recently used first. *)
let dump t =
  Array.fold_right
    (fun e acc -> if e.pool >= 0 then (e.base, e.size, e.pool) :: acc else acc)
    t.ways []

let stats t = t.stats
let misses t = Hit_miss.misses t.stats
let accesses t = Hit_miss.accesses t.stats
