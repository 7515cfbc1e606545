(* The storeP functional unit of Fig. 6: a buffer of outstanding
   store-pointer instructions, each with a small state machine tracking
   the Rs (va2ra) and Rd (ra2va) translations.  Translations of
   different entries proceed concurrently, so in the common case the
   conversion latency is hidden; the unit only stalls the pipeline when
   all FSM entries are busy. *)

module Telemetry = Nvml_telemetry.Telemetry

(* FSM-entry occupancy observed at each issue — how full the unit runs. *)
let occupancy_histo = Telemetry.histo "storep.occupancy"

type t = {
  busy_until : int array; (* per-entry completion cycle *)
  mutable issued : int;
  mutable stall_cycles : int;
  mutable peak_occupancy : int;
}

let create ~entries =
  {
    busy_until = Array.make entries 0;
    issued = 0;
    stall_cycles = 0;
    peak_occupancy = 0;
  }

(* Issue a storeP at cycle [now] whose translations take [latency]
   cycles inside the unit.  Returns the pipeline stall (0 when a free
   entry exists). *)
let issue t ~now ~latency =
  t.issued <- t.issued + 1;
  let victim = ref 0 in
  let occupancy = ref 0 in
  for i = 0 to Array.length t.busy_until - 1 do
    if t.busy_until.(i) > now then incr occupancy;
    if t.busy_until.(i) < t.busy_until.(!victim) then victim := i
  done;
  if !occupancy > t.peak_occupancy then t.peak_occupancy <- !occupancy;
  if Telemetry.enabled () then Telemetry.observe occupancy_histo !occupancy;
  let busy = t.busy_until.(!victim) in
  let start = if busy > now then busy else now in
  let stall = start - now in
  t.stall_cycles <- t.stall_cycles + stall;
  t.busy_until.(!victim) <- start + latency;
  stall

let issued t = t.issued
let stall_cycles t = t.stall_cycles
let peak_occupancy t = t.peak_occupancy

let flush t = Array.fill t.busy_until 0 (Array.length t.busy_until) 0
