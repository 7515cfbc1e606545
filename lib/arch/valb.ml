(* The VALB — virtual address lookaside buffer — of Section V-A: a small
   fully-associative range CAM that maps a virtual address to the
   persistent pool whose mapping covers it, accelerating va2ra in the
   storeP unit.  Each entry holds (PMO starting address, PMO size,
   PMO ID); a lookup finds the covering range, TCAM-style.  Misses are
   served by the VAW walking the VATB B-tree kernel table; the walker
   refills the buffer with the whole pool range. *)

module Hit_miss = Nvml_telemetry.Stats.Hit_miss

(* Deliberately re-enable a fixed bug for the model-based fuzzer's
   [--break] self-test.  Never set outside that self-test. *)
type quirk =
  | Stale_invalidate_stamp
      (* pre-fix: [invalidate_pool]/[flush] cleared the pool id but left
         the way's LRU stamp, so a later refill evicted a valid entry
         while the invalidated way sat unused *)
  | Duplicate_insert
      (* pre-fix: [insert] never checked for an existing entry covering
         the same pool range, so repeated VAW refills let one pool
         occupy multiple CAM ways *)

type entry = { mutable base : int64; mutable size : int64; mutable pool : int }

type t = {
  entries : entry array;
  stamps : int array;
  mutable clock : int;
  mutable stale_stamp : bool;
  mutable dup_insert : bool;
  stats : Hit_miss.t;
}

let create ~entries =
  {
    entries = Array.init entries (fun _ -> { base = 0L; size = 0L; pool = -1 });
    stamps = Array.make entries 0;
    clock = 0;
    stale_stamp = false;
    dup_insert = false;
    stats = Hit_miss.create ();
  }

let enable_quirk t = function
  | Stale_invalidate_stamp -> t.stale_stamp <- true
  | Duplicate_insert -> t.dup_insert <- true

let find t va =
  let n = Array.length t.entries in
  let rec scan i =
    if i >= n then None
    else
      let e = t.entries.(i) in
      if e.pool >= 0 && va >= e.base && va < Int64.add e.base e.size then
        Some i
      else scan (i + 1)
  in
  scan 0

(* Look up [va]; returns the pool id on a hit. *)
let lookup t va =
  t.clock <- t.clock + 1;
  match find t va with
  | Some i ->
      Hit_miss.hit t.stats;
      t.stamps.(i) <- t.clock;
      Some t.entries.(i).pool
  | None ->
      Hit_miss.miss t.stats;
      None

(* Refill after a VAW walk.  A pool already resident refreshes its
   existing way in place (its range may have moved after a remap);
   otherwise fill an invalid way, and only evict LRU when the CAM is
   full.  Without the dedup, repeated refills let one pool occupy
   several ways — deflating effective capacity while inflating the
   reported hit rate. *)
let insert t ~base ~size ~pool =
  t.clock <- t.clock + 1;
  let n = Array.length t.entries in
  let victim = ref (-1) in
  (if not t.dup_insert then
     let rec dedup i =
       if i < n then
         if t.entries.(i).pool = pool then victim := i else dedup (i + 1)
     in
     dedup 0);
  (if !victim < 0 && not t.stale_stamp then
     let rec invalid i =
       if i < n then
         if t.entries.(i).pool < 0 then victim := i else invalid (i + 1)
     in
     invalid 0);
  if !victim < 0 then begin
    victim := 0;
    for i = 1 to n - 1 do
      if t.stamps.(i) < t.stamps.(!victim) then victim := i
    done
  end;
  let e = t.entries.(!victim) in
  e.base <- base;
  e.size <- size;
  e.pool <- pool;
  t.stamps.(!victim) <- t.clock

(* Shootdown when a pool mapping disappears.  Stamps are reset with the
   entry so the freed way is the next refill victim. *)
let invalidate_pool t pool =
  Array.iteri
    (fun i e ->
      if e.pool = pool then begin
        e.pool <- -1;
        if not t.stale_stamp then t.stamps.(i) <- 0
      end)
    t.entries

let flush t =
  Array.iter (fun e -> e.pool <- -1) t.entries;
  if not t.stale_stamp then Array.fill t.stamps 0 (Array.length t.stamps) 0

(* Debug view for the model-based fuzzer: every valid entry as
   (base, size, pool, stamp), way order. *)
let dump t =
  let acc = ref [] in
  for i = Array.length t.entries - 1 downto 0 do
    let e = t.entries.(i) in
    if e.pool >= 0 then acc := (e.base, e.size, e.pool, t.stamps.(i)) :: !acc
  done;
  !acc

let stats t = t.stats
let misses t = Hit_miss.misses t.stats
let accesses t = Hit_miss.accesses t.stats
