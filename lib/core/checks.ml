(* The runtime checks of Fig. 3: [determine_x], [determine_y] and
   [pointer_assignment].  These are the software fallback the SW version
   executes at every pointer-operation site the compiler could not
   resolve statically; the HW version implements the same logic in the
   storeP functional unit. *)

module Layout = Nvml_simmem.Layout
module Telemetry = Nvml_telemetry.Telemetry

(* Outcome counters for the dynamic checks: which branch each
   pointerAssignment took. *)
let c_pa_keep_relative = Telemetry.counter "check.pointer_assignment.keep_relative"
let c_pa_keep_virtual = Telemetry.counter "check.pointer_assignment.keep_virtual"
let c_pa_va2ra = Telemetry.counter "check.pointer_assignment.va2ra"
let c_pa_ra2va = Telemetry.counter "check.pointer_assignment.ra2va"

(* determineY: format of a pointer value — one sign test. *)
let determine_y (p : Ptr.t) : Ptr.format = Ptr.format p

(* determineX: location of the cell a pointer designates.  A relative
   pointer is necessarily into NVM; a virtual address is classified by
   bit 47. *)
let determine_x (p : Ptr.t) : Ptr.location = Ptr.location p

let count_check (x : Xlate.t) =
  (Xlate.counters x).dynamic_checks <- (Xlate.counters x).dynamic_checks + 1

(* pointerAssignment(to, p) from Fig. 3: decide the representation in
   which the pointer value [value] must be stored into the cell
   designated by [dst]:

     destination in NVM  -> store relative form  (va2ra if needed)
     destination in DRAM -> store virtual form   (ra2va if needed)

   Returns the value to store.  [dst] itself may be in either format. *)
let pointer_assignment (x : Xlate.t) ~(dst : Ptr.t) ~(value : Ptr.t) : Ptr.t =
  count_check x;
  let tl = Telemetry.enabled () in
  match determine_x dst with
  | Nvm -> (
      count_check x;
      match determine_y value with
      | Relative ->
          if tl then Telemetry.incr c_pa_keep_relative;
          value
      | Virtual ->
          if tl then Telemetry.incr c_pa_va2ra;
          Xlate.va2ra x value)
  | Dram -> (
      count_check x;
      match determine_y value with
      | Relative ->
          if tl then Telemetry.incr c_pa_ra2va;
          Xlate.ra2va x value
      | Virtual ->
          if tl then Telemetry.incr c_pa_keep_virtual;
          value)
