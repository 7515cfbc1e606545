(** The check-site / lookaside profile: run one benchmark in the SW and
    HW configurations inside a fresh telemetry scope and distill the
    Section VII observability story — which of the structure's sites
    executed dynamic checks, the POLB/VALB hit rates, and cycle
    attribution by stall source. *)

module Telemetry = Nvml_telemetry.Telemetry
module Workload = Nvml_ycsb.Workload

type site_row = { site : string; static : bool; checks : int }

type t = {
  benchmark : string;
  sw : Harness.result;
  hw : Harness.result;
  sites : site_row list;
      (** the profiled structure's sites (name prefix: its lowercase
          name and a dot), by descending checks, then name *)
  counters : (string * int) list;
  histos : (string * Telemetry.histo_stats) list;
  derived : (string * float) list;
      (** includes [check_sites.dynamic_fraction], [polb.hit_rate],
          [valb.hit_rate] *)
}

val run :
  ?par:((unit -> Harness.result) list -> Harness.result list) ->
  benchmark:string ->
  Workload.spec ->
  t
(** Profile [benchmark].  Telemetry is force-enabled for the duration
    (restored afterwards) and recorded in a private sink.  [par] runs
    the two independent mode cells — pass [Pool.run pool] to exercise
    the parallel merge; the result is identical either way. *)

val stats_json : t -> Nvml_telemetry.Json.t
(** The stats document ([{"schema": 1, "derived": ..., "counters": ...,
    "histograms": ..., "sites": ...}]). *)
