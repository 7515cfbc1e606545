(* A set-associative cache (or cache-like structure) with true-LRU
   replacement, keyed by integer block addresses.  Used for all three
   data-cache levels and, with a different index granularity, the TLBs.

   Only presence is tracked, not contents — the functional memory is
   elsewhere; this structure answers "would this access hit?" and keeps
   hit/miss statistics. *)

module Hit_miss = Nvml_telemetry.Stats.Hit_miss

(* Deliberately re-enable a fixed bug, so the model-based fuzzer's
   [--break] self-test can prove it would have caught it.  Never set
   outside that self-test. *)
type quirk =
  | Stale_invalidate_stamp
      (* pre-fix behaviour: [invalidate] clears the tag but leaves the
         way's LRU stamp, and eviction picks the min-stamp way without
         preferring invalid ones — so a later miss can evict a *valid*
         line while the invalidated slot sits unused *)

type t = {
  sets : int;
  ways : int;
  index_shift : int; (* address bits consumed before indexing *)
  pow2 : bool; (* power-of-two set counts index by masking *)
  tags : int array; (* sets * ways, -1 = invalid *)
  stamps : int array; (* LRU timestamps *)
  mutable clock : int;
  mutable stale_stamp : bool; (* Stale_invalidate_stamp quirk enabled *)
  stats : Hit_miss.t;
}

let create ~sets ~ways ~index_shift =
  if sets <= 0 then invalid_arg "Cache.create: sets must be positive";
  {
    sets;
    ways;
    index_shift;
    pow2 = sets land (sets - 1) = 0;
    tags = Array.make (sets * ways) (-1);
    stamps = Array.make (sets * ways) 0;
    clock = 0;
    stale_stamp = false;
    stats = Hit_miss.create ();
  }

let enable_quirk t Stale_invalidate_stamp = t.stale_stamp <- true

let set_of t block = if t.pow2 then block land (t.sets - 1) else block mod t.sets

(* Build an L1-like cache from a size in KiB. *)
let of_size ~kib ~ways ~line_shift =
  let lines = kib * 1024 / (1 lsl line_shift) in
  create ~sets:(lines / ways) ~ways ~index_shift:line_shift

let block_of t addr = addr lsr t.index_shift

(* Access the block containing [addr]; insert on miss; true on hit. *)
let access t addr =
  let block = block_of t addr in
  let set = set_of t block in
  let base = set * t.ways in
  t.clock <- t.clock + 1;
  let hit = ref (-1) in
  let i = ref 0 in
  while !hit < 0 && !i < t.ways do
    if Array.unsafe_get t.tags (base + !i) = block then hit := !i;
    incr i
  done;
  if !hit >= 0 then begin
    t.stamps.(base + !hit) <- t.clock;
    Hit_miss.hit t.stats;
    true
  end
  else begin
    Hit_miss.miss t.stats;
    (* Fill an invalid way when one exists; only a full set evicts its
       LRU line.  (The quirk restores the pre-fix pure min-stamp scan,
       which — combined with the stale stamp [invalidate] used to leave
       behind — evicted valid lines while invalidated slots sat idle.) *)
    let victim = ref (-1) in
    if not t.stale_stamp then begin
      let i = ref 0 in
      while !victim < 0 && !i < t.ways do
        if Array.unsafe_get t.tags (base + !i) = -1 then victim := !i;
        incr i
      done
    end;
    if !victim < 0 then begin
      victim := 0;
      for i = 1 to t.ways - 1 do
        if t.stamps.(base + i) < t.stamps.(base + !victim) then victim := i
      done
    end;
    t.tags.(base + !victim) <- block;
    t.stamps.(base + !victim) <- t.clock;
    false
  end

(* Probe without inserting (used by tests). *)
let probe t addr =
  let block = block_of t addr in
  let set = set_of t block in
  let base = set * t.ways in
  let rec find i =
    if i >= t.ways then false
    else t.tags.(base + i) = block || find (i + 1)
  in
  find 0

(* Invalidate the block containing [addr] if present (e.g. POLB entry
   shootdown when a pool is detached).  The LRU stamp is reset with the
   tag: leaving it behind made the invalidated way look recently used,
   so a later miss would evict a valid line instead of reusing it. *)
let invalidate t addr =
  let block = block_of t addr in
  let set = set_of t block in
  let base = set * t.ways in
  for i = 0 to t.ways - 1 do
    if t.tags.(base + i) = block then begin
      t.tags.(base + i) <- -1;
      if not t.stale_stamp then t.stamps.(base + i) <- 0
    end
  done

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0

(* Debug view for the model-based fuzzer: the (tag, stamp) pairs of one
   set, way order.  Invalid ways report tag -1. *)
let ways_of_set t set =
  if set < 0 || set >= t.sets then invalid_arg "Cache.ways_of_set";
  let base = set * t.ways in
  List.init t.ways (fun i -> (t.tags.(base + i), t.stamps.(base + i)))

let sets t = t.sets
let stats t = t.stats
let misses t = Hit_miss.misses t.stats
let accesses t = Hit_miss.accesses t.stats
let hit_rate t = Hit_miss.hit_rate t.stats
