(* A set-associative cache (or cache-like structure) with true-LRU
   replacement, keyed by integer block addresses.  Used for all three
   data-cache levels and, with a different index granularity, the TLBs.

   Only presence is tracked, not contents — the functional memory is
   elsewhere; this structure answers "would this access hit?" and keeps
   hit/miss statistics.

   Each set keeps its tags in recency order, most recent first: the
   valid ways are a prefix and the invalid (-1) ways the tail.  An
   access moves its block to way 0 and shifts the ways above it down by
   one, so a hit at way 0 costs one read, and a miss one pass that
   stops at the first invalid way (filled) or falls off the last (the
   LRU line, evicted).  No per-way timestamps are kept. *)

module Hit_miss = Nvml_telemetry.Stats.Hit_miss

(* Deliberately re-enable a fixed bug, so the model-based fuzzer's
   [--break] self-test can prove it would have caught it.  Never set
   outside that self-test. *)
type quirk =
  | Stale_invalidate_stamp
      (* pre-fix behaviour: [invalidate] clears the tag but leaves the
         way at its recency position, and a miss evicts the last way
         without preferring invalid ones — so it can evict a *valid*
         line while the invalidated slot sits unused.  The cleared way
         holds [stale] (-2), which a miss carries down like a tag. *)

type t = {
  sets : int;
  ways : int;
  index_shift : int; (* address bits consumed before indexing *)
  pow2 : bool; (* power-of-two set counts index by masking *)
  tags : int array; (* sets * ways, each set most recent first, -1 = invalid *)
  mutable stale_stamp : bool; (* Stale_invalidate_stamp quirk enabled *)
  stats : Hit_miss.t;
}

let create ~sets ~ways ~index_shift =
  if sets <= 0 then invalid_arg "Cache.create: sets must be positive";
  if ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  {
    sets;
    ways;
    index_shift;
    pow2 = sets land (sets - 1) = 0;
    tags = Array.make (sets * ways) (-1);
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

(* The tag [invalidate] leaves under the quirk: neither a block nor the
   invalid (-1) tail, so a miss carries it down like a valid tag. *)
let stale = -2

(* Carry [carried] down one way at a time from index [i] of [tags],
   each way's old tag moving to the next, until [block]'s old way, the
   first invalid way (only the invalid tail lies past it) or the end of
   the set at [last] is overwritten.  True when [block] was found. *)
let rec shift_down (tags : int array) ~block ~last i carried =
  if i > last then false
  else begin
    let tag = Array.unsafe_get tags i in
    Array.unsafe_set tags i carried;
    if tag = block then true
    else if tag = -1 then false
    else shift_down tags ~block ~last (i + 1) tag
  end

(* Access the block containing [addr]; insert on miss; true on hit. *)
let access t addr =
  let block = block_of t addr in
  let base = set_of t block * t.ways in
  let tags = t.tags in
  let first = Array.unsafe_get tags base in
  if first = block then begin
    Hit_miss.hit t.stats;
    true
  end
  else begin
    Array.unsafe_set tags base block;
    let hit =
      first <> -1
      && shift_down tags ~block ~last:(base + t.ways - 1) (base + 1) first
    in
    if hit then Hit_miss.hit t.stats else Hit_miss.miss t.stats;
    hit
  end

(* The index of [block] among [tags] from [i] to [last], else
   [last + 1]. *)
let rec find (tags : int array) ~block ~last i =
  if i > last || Array.unsafe_get tags i = block then i
  else find tags ~block ~last (i + 1)

(* Probe without inserting (coherence checks and tests). *)
let probe t addr =
  let block = block_of t addr in
  let base = set_of t block * t.ways in
  let last = base + t.ways - 1 in
  find t.tags ~block ~last base <= last

(* Invalidate the block containing [addr] if present (e.g. POLB entry
   shootdown when a pool is detached).  The less recent ways move up
   one, so the freed way joins the invalid tail and the next miss in the
   set fills it; leaving it in place (the quirk) kept it among the valid
   ways, so a later miss evicted a valid line instead of reusing it. *)
let invalidate t addr =
  let block = block_of t addr in
  let base = set_of t block * t.ways in
  let last = base + t.ways - 1 in
  let k = find t.tags ~block ~last base in
  if k <= last then
    if t.stale_stamp then t.tags.(k) <- stale
    else begin
      Array.blit t.tags (k + 1) t.tags k (last - k);
      t.tags.(last) <- -1
    end

let flush t = Array.fill t.tags 0 (Array.length t.tags) (-1)

(* Debug view for the model-based fuzzer: the valid tags of one set,
   most recently used first. *)
let ways_of_set t set =
  if set < 0 || set >= t.sets then invalid_arg "Cache.ways_of_set";
  List.init t.ways (fun i -> t.tags.((set * t.ways) + i))
  |> List.filter (fun tag -> tag >= 0)

let sets t = t.sets
let stats t = t.stats
let misses t = Hit_miss.misses t.stats
let accesses t = Hit_miss.accesses t.stats
let hit_rate t = Hit_miss.hit_rate t.stats
