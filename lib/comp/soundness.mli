(** The soundness matrix of Section VII-B: a corpus program must print
    its native output (volatile version, DRAM heap) in every
    configuration of {!configs}. *)

type config = {
  label : string;
  mode : Nvml_runtime.Runtime.mode;
  persistent : bool;  (** heap in a persistent pool *)
  inferred : bool;  (** with {!Inference.plan}'s check elision *)
}

val configs : config list
(** SW/DRAM, SW/NVM, HW/DRAM, HW/NVM and SW+inference (SW over a
    persistent heap with the inference's check plan). *)

val check : Nvml_minic.Ast.program -> bool list
(** Per config of {!configs}, in order: does the program's output on a
    fresh machine ({!Nvml_minic.Interp.run_fresh}) match its native
    output? *)
