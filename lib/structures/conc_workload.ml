(* The canonical contended workload over the multi-core machine, shared
   by the fault-injection engine, the model checker and the bench
   `concurrent` experiment (`nvml kv --cores` runs its own replicated
   loop): every core hammers one shared {!Conc_counter} and one shared
   {!Conc_list}, with periodic reads so the FliT table sees both
   in-flight and quiescent objects (issued *and* elided flushes).

   Per-core op [j]: increment the counter, then publish key
   [(core+1) << 32 | j] into list slot [core * ops_per_core + j].  Both
   sub-operations are bracketed by the [mark] callback — the
   fault-injection engine uses it to know, at every persistence event,
   exactly which operations were invoked and which had completed. *)

module Runtime = Nvml_runtime.Runtime
module Cluster = Nvml_runtime.Cluster

type phase = Ctr_invoke | Ctr_done | List_invoke | List_done

type setup = {
  cluster : Cluster.t;
  counter : Conc_counter.t;
  list : Conc_list.t;
  cores : int;
  ops_per_core : int;
}

(* Every 4th op on a core reads the counter; every 16th probes the list. *)
let read_every = 4

let key ~core ~op =
  Int64.logor (Int64.shift_left (Int64.of_int (core + 1)) 32) (Int64.of_int op)

let decode_key k =
  (Int64.to_int (Int64.shift_right_logical k 32) - 1, Int64.to_int (Int64.logand k 0xFFFFFFFFL))

(* Build the structures on [primary] (outside the scheduler) and the
   cluster around it.  The caller owns pool/root management. *)
let setup ?(sched_seed = 1) ~cores ~ops_per_core primary ~pool =
  let region = Runtime.Pool_region pool in
  let counter = Conc_counter.create primary region ~cells:cores in
  let list = Conc_list.create primary region ~capacity:(cores * ops_per_core) in
  let cluster = Cluster.create ~seed:sched_seed ~cores primary in
  { cluster; counter; list; cores; ops_per_core }

let no_mark ~core:_ ~op:_ _ = ()

(* Run the interleaved phase.  Deterministic: a pure function of the
   setup parameters and the scheduler seed. *)
let run ?(mark = no_mark) s =
  let body core =
    let rt = Cluster.rt s.cluster core in
    let ch = Conc_counter.handle s.counter rt ~core in
    let lh = Conc_list.handle s.list rt in
    for j = 0 to s.ops_per_core - 1 do
      mark ~core ~op:j Ctr_invoke;
      Conc_counter.incr ch 1L;
      mark ~core ~op:j Ctr_done;
      mark ~core ~op:j List_invoke;
      Conc_list.insert lh ~slot:((core * s.ops_per_core) + j) ~key:(key ~core ~op:j);
      mark ~core ~op:j List_done;
      (* End of one application-level operation on this core: under an
         epoch model every interval-th boundary drains this core's
         epoch through the shared buffer. *)
      Runtime.persist_op_boundary rt;
      if (j + 1) mod read_every = 0 then ignore (Conc_counter.read ch);
      if (j + 1) mod (read_every * 4) = 0 then
        ignore (Conc_list.mem lh (key ~core ~op:j))
    done
  in
  Cluster.run s.cluster (Array.init s.cores (fun _ -> body))
