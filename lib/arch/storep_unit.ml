(* The storeP functional unit of Fig. 6: a buffer of outstanding
   store-pointer instructions, each with a small state machine tracking
   the Rs (va2ra) and Rd (ra2va) translations.  Translations of
   different entries proceed concurrently, so in the common case the
   conversion latency is hidden; the unit only stalls the pipeline when
   all FSM entries are busy.

   Only the multiset of busy entries' completion cycles is observable,
   so the unit keeps just the ones still in the future, in a binary
   min-heap: an issue pops those that have passed, reads its occupancy
   as the heap size, and, when every entry is busy, waits for the root.
   That needs issues at non-decreasing cycles, which [issue] checks. *)

module Telemetry = Nvml_telemetry.Telemetry

(* FSM-entry occupancy observed at each issue — how full the unit runs. *)
let occupancy_lat = Telemetry.latency "storep.occupancy"

type t = {
  heap : int array; (* completion cycles of busy entries, min-heap in [0, size) *)
  mutable size : int;
  mutable last_now : int; (* the previous issue's cycle since the last flush *)
  mutable issued : int;
  mutable stall_cycles : int;
  mutable peak_occupancy : int;
}

let create ~entries =
  if entries <= 0 then invalid_arg "Storep_unit.create: entries must be positive";
  {
    heap = Array.make entries 0;
    size = 0;
    last_now = min_int;
    issued = 0;
    stall_cycles = 0;
    peak_occupancy = 0;
  }

(* Place [x] at slot [i] of the heap's first [size] slots, moving the
   smaller child up while it is below [x]. *)
let rec sift_down (heap : int array) size i (x : int) =
  let l = (2 * i) + 1 in
  if l >= size then Array.unsafe_set heap i x
  else begin
    let r = l + 1 in
    let c =
      if r < size && Array.unsafe_get heap r < Array.unsafe_get heap l then r
      else l
    in
    let y = Array.unsafe_get heap c in
    if y < x then begin
      Array.unsafe_set heap i y;
      sift_down heap size c x
    end
    else Array.unsafe_set heap i x
  end

(* Place [x] at slot [i], moving parents down while they are above it. *)
let rec sift_up (heap : int array) i (x : int) =
  if i = 0 then Array.unsafe_set heap 0 x
  else begin
    let p = (i - 1) / 2 in
    let y = Array.unsafe_get heap p in
    if y > x then begin
      Array.unsafe_set heap i y;
      sift_up heap p x
    end
    else Array.unsafe_set heap i x
  end

(* Issue a storeP at cycle [now] whose translations take [latency]
   cycles inside the unit.  Returns the pipeline stall (0 when a free
   entry exists). *)
let issue t ~now ~latency =
  if now < t.last_now then
    invalid_arg "Storep_unit.issue: now is below the previous issue's";
  t.last_now <- now;
  t.issued <- t.issued + 1;
  let heap = t.heap in
  while t.size > 0 && Array.unsafe_get heap 0 <= now do
    t.size <- t.size - 1;
    sift_down heap t.size 0 (Array.unsafe_get heap t.size)
  done;
  let occupancy = t.size in
  if occupancy > t.peak_occupancy then t.peak_occupancy <- occupancy;
  Telemetry.record occupancy_lat occupancy;
  if occupancy < Array.length heap then begin
    t.size <- occupancy + 1;
    sift_up heap occupancy (now + latency);
    0
  end
  else begin
    let start = Array.unsafe_get heap 0 in
    let stall = start - now in
    t.stall_cycles <- t.stall_cycles + stall;
    sift_down heap occupancy 0 (start + latency);
    stall
  end

let issued t = t.issued
let stall_cycles t = t.stall_cycles
let peak_occupancy t = t.peak_occupancy

let flush t =
  t.size <- 0;
  t.last_now <- min_int
