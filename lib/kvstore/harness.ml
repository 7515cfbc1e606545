(* The key-value store harness of Section VII-A, in the mold of the
   PMDK mapcli example: a driver that maps 8-byte keys to 8-byte values
   through a pluggable index structure, loads an initial population and
   then replays a YCSB operation stream, measuring the run phase in the
   timing model.

   The driver itself is ordinary volatile application code: its key
   buffer lives in simulated DRAM and is read on every operation, so
   volatile accesses interleave with the library's persistent accesses
   exactly as in a real run. *)

module Layout = Nvml_simmem.Layout
module Mem = Nvml_simmem.Mem
module Ptr = Nvml_core.Ptr
module Xlate = Nvml_core.Xlate
module Cpu = Nvml_arch.Cpu
module Runtime = Nvml_runtime.Runtime
module Site = Nvml_runtime.Site
module Intf = Nvml_structures.Intf
module Linked_list = Nvml_structures.Linked_list
module Workload = Nvml_ycsb.Workload
module Telemetry = Nvml_telemetry.Telemetry
module Oplat = Nvml_runtime.Oplat

(* Harness sites: the driver is compiled with the application, where
   inference sees the allocation sites — static. *)
let s_driver = Site.make ~static:true "harness.driver"

type counter_delta = {
  dynamic_checks : int;
  abs_to_rel : int; (* va2ra conversions *)
  rel_to_abs : int; (* ra2va conversions *)
  volatile_escapes : int;
}

let counter_diff (after : Xlate.counters) (before : Xlate.counters) =
  {
    dynamic_checks = after.Xlate.dynamic_checks - before.Xlate.dynamic_checks;
    abs_to_rel = after.Xlate.va2ra - before.Xlate.va2ra;
    rel_to_abs = after.Xlate.ra2va - before.Xlate.ra2va;
    volatile_escapes = after.Xlate.volatile_escapes - before.Xlate.volatile_escapes;
  }

let copy_counters (c : Xlate.counters) =
  {
    Xlate.ra2va = c.Xlate.ra2va;
    va2ra = c.Xlate.va2ra;
    dynamic_checks = c.Xlate.dynamic_checks;
    volatile_escapes = c.Xlate.volatile_escapes;
  }

type persist_tally = {
  model : Nvml_runtime.Persist.model;
  drains : int;
  flushes : int; (* line write-backs charged by the drains *)
  fences : int;
  buffered : int; (* distinct dirty words buffered across the run *)
}

type result = {
  benchmark : string;
  mode : Runtime.mode;
  load : Cpu.snapshot; (* load-phase deltas *)
  run : Cpu.snapshot; (* run-phase deltas — what the figures report *)
  attr : Cpu.attribution; (* run-phase cycle attribution *)
  checks : counter_delta; (* run-phase conversion/check counts *)
  hits : int; (* GETs that found their key (sanity) *)
  misses : int;
  oplat : Oplat.t; (* per-op run-phase latency distribution *)
  persist : persist_tally; (* whole-run drain traffic (zero under eager) *)
}

let persist_tally rt =
  let p = Runtime.persist rt in
  let module P = Nvml_runtime.Persist in
  {
    model = P.model p;
    drains = P.drains p;
    flushes = P.flushes p;
    fences = P.fences p;
    buffered = P.stores_buffered p;
  }

let pool_size = 1 lsl 26 (* frames are lazily backed, so a roomy pool is free *)

let region_for ~name rt mode =
  match mode with
  | Runtime.Volatile -> Runtime.Dram_region
  | _ -> Runtime.Pool_region (Runtime.create_pool rt ~name ~size:pool_size)

(* The request buffer: the key of [record j] for each op [j], read back
   once per op. *)
let stage_keys rt n record =
  let buf = Mem.map_fresh (Runtime.mem rt) Layout.Dram (max 8 (n * 8)) in
  for j = 0 to n - 1 do
    Mem.write_word (Runtime.mem rt)
      (Int64.add buf (Int64.of_int (j * 8)))
      (Workload.key_of_index (record j))
  done;
  buf

(* The measurement protocol of every kv run.  Under a relaxed
   persistency model every op is an epoch boundary candidate
   ([Runtime.persist_op_boundary]) and the run ends with a full drain,
   so the measured cycles include the model's flush+fence µ-events —
   durability is weakened, never dropped. *)
let measure ?cell rt ~benchmark ~records ~ops ~load ~run =
  let mode = Runtime.mode rt in
  Telemetry.span "harness.load" ~args:[ ("records", records) ] load;
  (* Close the load phase's epoch before the phase boundary, so the
     load's (large, one-off) drain bills into the load phase and the
     measured run phase carries only its own drain traffic. *)
  Runtime.persist_sync rt;
  let load = Runtime.snapshot rt in
  let a0 = Cpu.attribution (Runtime.cpu rt) in
  let c0 = copy_counters (Runtime.counters rt) in
  (* Run phase: every op is bracketed with cycle stamps so its latency
     and attribution land in the per-cell recorder. *)
  let cpu = Runtime.cpu rt in
  let cell = Option.value cell ~default:(benchmark ^ "/" ^ Runtime.mode_name mode) in
  let ol = Oplat.create ~cell () in
  let step op =
    Oplat.op_begin ol cpu;
    let name = op ol in
    Runtime.persist_op_boundary rt;
    Oplat.op_end ol cpu name
  in
  Telemetry.span "harness.run" ~args:[ ("ops", ops) ] (fun () -> run step);
  (* Close the final epoch: the run is not over until its data is
     durable, so the drain bills into the measured run phase. *)
  Runtime.persist_sync rt;
  let after = Runtime.snapshot rt in
  {
    benchmark;
    mode;
    load;
    run = Cpu.diff_snapshot after load;
    attr = Cpu.diff_attribution (Cpu.attribution cpu) a0;
    checks = counter_diff (Runtime.counters rt) c0;
    hits = 0;
    misses = 0;
    oplat = ol;
    persist = persist_tally rt;
  }

(* Run one YCSB spec against one index structure in one mode. *)
let run_map (module M : Intf.ORDERED_MAP) ~mode ?(cfg = Nvml_arch.Config.default)
    ?(persist = Nvml_runtime.Persist.Eager) (spec : Workload.spec) : result =
  let rt = Runtime.create ~cfg ~mode ~persist () in
  let m = M.create rt (region_for ~name:"kv" rt mode) in
  (* Pre-generate the op stream and stage its keys before the load. *)
  let ops = Workload.ops spec in
  let key_buf =
    stage_keys rt (Array.length ops) (fun i -> Workload.first_record ops.(i))
  in
  let hits = ref 0 and misses = ref 0 in
  let find k =
    let v = M.find m k in
    incr (if Option.is_some v then hits else misses);
    v
  in
  let insert = M.insert m in
  let r =
    measure rt ~benchmark:M.name ~records:spec.Workload.record_count
      ~ops:(Array.length ops)
      ~load:(fun () ->
        for i = 0 to spec.Workload.record_count - 1 do
          Workload.load_record ~insert i
        done)
      ~run:(fun step ->
        Array.iteri
          (fun i op ->
            step (fun ol ->
                (* Fetch the key from the request buffer (the op
                   derives the same key), dispatch. *)
                ignore (Runtime.load_word rt ~site:s_driver key_buf ~off:(i * 8) : int64);
                Runtime.instr rt 10;
                Oplat.mark_driver ol (Runtime.cpu rt);
                Workload.apply ~find ~insert op;
                Workload.op_name op))
          ops)
  in
  Runtime.publish_stats rt;
  { r with hits = !hits; misses = !misses }

(* The separate LL harness: build [nodes] nodes of two pointers and a
   16-byte value, then iterate the list 10 times accumulating the
   values. *)
let run_ll ~mode ?(cfg = Nvml_arch.Config.default)
    ?(persist = Nvml_runtime.Persist.Eager) ?(nodes = 10_000) () : result =
  let rt = Runtime.create ~cfg ~mode ~persist () in
  let l = Linked_list.create rt (region_for ~name:"kv" rt mode) in
  let rng = Random.State.make [| 7 |] in
  let r =
    measure rt ~benchmark:"LL" ~records:nodes ~ops:10
      ~load:(fun () ->
        for _ = 1 to nodes do
          Linked_list.append l
            ~v0:(Random.State.int64 rng Int64.max_int)
            ~v1:(Random.State.int64 rng Int64.max_int)
        done)
      ~run:(fun step ->
        for _ = 1 to 10 do
          step (fun _ ->
              ignore (Linked_list.iterate_sum l : int64);
              "scan")
        done)
  in
  Runtime.publish_stats rt;
  { r with hits = nodes }

(* Run a named benchmark (Table III) in a mode. *)
let run_benchmark name ~mode ?cfg ?persist (spec : Workload.spec) : result =
  if String.lowercase_ascii name = "ll" then
    run_ll ~mode ?cfg ?persist ~nodes:spec.Workload.record_count ()
  else run_map (Nvml_structures.Registry.find_map name) ~mode ?cfg ?persist spec
