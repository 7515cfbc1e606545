(* The soundness matrix of Section VII-B: every corpus program, run on
   a fresh machine in each configuration, must print what its native run
   (volatile version, DRAM heap) prints. *)

module Runtime = Nvml_runtime.Runtime
module Interp = Nvml_minic.Interp

type config = {
  label : string;
  mode : Runtime.mode;
  persistent : bool;
  inferred : bool;
}

let configs =
  let c label mode persistent inferred = { label; mode; persistent; inferred } in
  [
    c "SW/DRAM" Runtime.Sw false false;
    c "SW/NVM" Runtime.Sw true false;
    c "HW/DRAM" Runtime.Hw false false;
    c "HW/NVM" Runtime.Hw true false;
    c "SW+inference" Runtime.Sw true true;
  ]

let output ?plan ~mode ~persistent program =
  (snd (Interp.run_fresh ?plan ~mode ~persistent program)).Interp.output

let check program =
  let native = output ~mode:Runtime.Volatile ~persistent:false program in
  List.map
    (fun c ->
      let plan =
        if c.inferred then Some (Inference.plan (Inference.infer program))
        else None
      in
      output ?plan ~mode:c.mode ~persistent:c.persistent program = native)
    configs
