(* A multi-core runtime cluster: the primary runtime plus N-1 forks,
   one per additional core, driven by the seeded µ-event scheduler in
   [Nvml_arch.Multicore].  Core 0 is the primary; cores 1.. are
   {!Runtime.fork}s sharing the memory system, pools, volatile
   allocator and kernel tables, each on a {!Cpu.create_sibling} core
   (private front end, shared L2/L3/POLB/VALB/VATB).

   Pool setup, structure creation and recovery run on the primary
   *outside* {!run}; only the interleaved phase goes through the
   scheduler.  Forks are volatile: after a crash of the primary, build
   a fresh cluster from the restarted primary. *)

module Multicore = Nvml_arch.Multicore
module Cpu = Nvml_arch.Cpu

type t = {
  rts : Runtime.t array; (* rts.(0) is the primary *)
  mc : Multicore.t;
}

let create ?(seed = 1) ~cores primary =
  if cores < 1 then invalid_arg "Cluster.create: cores must be >= 1";
  let rts =
    Array.init cores (fun i -> if i = 0 then primary else Runtime.fork primary)
  in
  let mc = Multicore.create ~seed (Array.map Runtime.cpu rts) in
  { rts; mc }

let primary t = t.rts.(0)
let rt t i = t.rts.(i)
let rts t = t.rts
let machine t = t.mc

let run t fns = Multicore.run t.mc fns
let stats t = Multicore.stats t.mc
