(** The Table II hardware cost model: per-structure entry sizes, entry
    counts, total bytes, and an analytic SRAM/CAM area estimate standing
    in for CACTI at 45 nm, calibrated to the paper's reported values. *)

type structure_kind = Fsm_buffer | Lookaside_cam

type structure = {
  name : string;
  kind : structure_kind;
  entry_bytes : int;
  num_entries : int;
}

val total_bytes : structure -> int
val area_mm2 : structure -> float
val of_config : Config.t -> structure list
val total_bytes_all : structure list -> int
val total_area_all : structure list -> float

val fraction_of_die : structure list -> float
