(** Component registry and driver for the model-based fuzzer.

    Each registered component pairs the simulated implementation with a
    reference model (see {!Harnesses}); [run] replays seeded op streams
    against a selection of them, optionally across a domain pool, and
    reports per-component results with shrunk counterexamples. *)

type spec = {
  name : string;
  breakable : bool;
      (** the component has a quirk that re-enables a fixed bug, so
          --break self-tests can assert the fuzzer finds it *)
  scale : int;  (** op-cost divisor applied to the requested op count *)
  make : cfg:Nvml_arch.Config.t -> break:bool -> Engine.packed;
      (** [cfg] is the machine the harness boots, if it boots one *)
}

val names : unit -> string list

exception Unknown_component of string

type entry = { spec_name : string; breakable : bool; result : Engine.result }
type report = { entries : entry list; violations : int }

val run :
  ?pool:Nvml_exec.Pool.t ->
  ?break:bool ->
  ?timing:bool ->
  components:string list ->
  ops:int ->
  seed:int ->
  unit ->
  report
(** Fuzz the selected components with the same [seed].  [break] enables
    each component's quirks (planted bugs) first.  With [pool] the
    components run on the domain pool; results keep submission order, so
    output is identical to the sequential run.  The harnesses boot
    their machines from [Config.default] at speed [timing] (default
    [false]): model checking compares only functional outputs, so they
    use fast functional simulation; pass [true] to run the
    cycle-accurate core (identical verdicts, slower). *)

val break_run_ok : report -> bool
(** A --break run succeeds iff every breakable component reported a
    violation and no other component did. *)

val pp_report : report Fmt.t
