(* Per-operation latency bracketing: cycle stamps around each top-level
   persistent operation, decomposed through the cycle-attribution
   machinery into five components that sum exactly to the op's cycles,
   plus a bounded deterministic reservoir of the slowest ops with their
   marker spans for Chrome-trace dumps.

   The probe state is the op's start cycle and its start attribution
   record, and the latency recorder's cells are preallocated, so the
   steady-state bracketing cost per op is two [Cpu.attribution] reads
   (each one small record) and integer arithmetic — nothing the timing
   model can observe. *)

module Cpu = Nvml_arch.Cpu
module Telemetry = Nvml_telemetry.Telemetry
module Latency = Nvml_telemetry.Latency
module Json = Nvml_telemetry.Json

type components = {
  base : int;
  check : int;
  translation : int;
  stall : int;
  media : int;
}

let zero_components =
  { base = 0; check = 0; translation = 0; stall = 0; media = 0 }

let add_components a b =
  {
    base = a.base + b.base;
    check = a.check + b.check;
    translation = a.translation + b.translation;
    stall = a.stall + b.stall;
    media = a.media + b.media;
  }

let components_total c = c.base + c.check + c.translation + c.stall + c.media

type sample = {
  op : string;
  seq : int;
  cell : string;
  cycles : int;
  comps : components;
  spans : (string * int * int) list;
}

(* Total order on samples, slowest first: more cycles, then smaller
   cell label, then smaller sequence number.  Deterministic, so the
   reservoir contents do not depend on merge order. *)
let compare_slowest a b =
  match compare b.cycles a.cycles with
  | 0 -> ( match compare a.cell b.cell with 0 -> compare a.seq b.seq | c -> c)
  | c -> c

(* The slow-op reservoir's capacity. *)
let k = 8

type t = {
  cell_label : string;
  lat : Latency.t;
  mutable totals : components;
  mutable next_seq : int;
  (* probe state: the open op's start *)
  mutable in_op : bool;
  mutable p_cycles : int;
  mutable p_attr : Cpu.attribution;
  mutable mark : int; (* the open op's driver mark, in its cycles; -1 if none *)
  mutable slow : sample list; (* sorted slowest first, length <= k *)
}

(* The telemetry-sink mirror of every recorder: op latencies also land
   in the current sink's "op.cycles" recorder (when telemetry is
   enabled), so stats documents and j1-vs-j4 merge checks see them. *)
let tl_op_cycles = Telemetry.latency "op.cycles"

let create ~cell () =
  {
    cell_label = cell;
    lat = Latency.create ();
    totals = zero_components;
    next_seq = 0;
    in_op = false;
    p_cycles = 0;
    p_attr =
      { Cpu.base = 0; branch = 0; tlb = 0; cache = 0; mem = 0; xlate = 0;
        storep = 0 };
    mark = -1;
    slow = [];
  }

let op_begin t cpu =
  t.in_op <- true;
  t.p_cycles <- Cpu.cycles cpu;
  t.p_attr <- Cpu.attribution cpu;
  t.mark <- -1

let mark_driver t cpu = if t.in_op then t.mark <- Cpu.cycles cpu - t.p_cycles

(* Insert [s] into the sorted reservoir, dropping the least-slow sample
   when over capacity. *)
let admit t s =
  let rec insert = function
    | [] -> [ s ]
    | x :: rest as l ->
        if compare_slowest s x < 0 then s :: l else x :: insert rest
  in
  let l = insert t.slow in
  t.slow <- (if List.length l > k then List.filteri (fun i _ -> i < k) l else l)

(* The op, then its driver prefix and the rest of the op after it; a
   mark at the op's last cycle leaves no rest. *)
let spans op ~mark cycles =
  let root = (op, 0, cycles) in
  if mark < 0 then [ root ]
  else if mark < cycles then [ root; ("driver", 0, mark); (op, mark, cycles) ]
  else [ root; ("driver", 0, mark) ]

let op_end t cpu op =
  if t.in_op then begin
    let a = Cpu.attribution cpu and p = t.p_attr in
    let cycles = Cpu.cycles cpu - t.p_cycles in
    let comps =
      {
        base = a.Cpu.base - p.Cpu.base + (a.Cpu.tlb - p.Cpu.tlb)
               + (a.Cpu.cache - p.Cpu.cache);
        check = a.Cpu.branch - p.Cpu.branch;
        translation = a.Cpu.xlate - p.Cpu.xlate;
        stall = a.Cpu.storep - p.Cpu.storep;
        media = a.Cpu.mem - p.Cpu.mem;
      }
    in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    t.in_op <- false;
    Latency.record t.lat cycles;
    Telemetry.record tl_op_cycles cycles;
    t.totals <- add_components t.totals comps;
    (* Admission test without allocating: only build the sample when it
       beats the reservoir's floor. *)
    let admits =
      List.length t.slow < k
      ||
      let floor = List.nth t.slow (List.length t.slow - 1) in
      cycles > floor.cycles
    in
    if admits then
      admit t
        {
          op;
          seq;
          cell = t.cell_label;
          cycles;
          comps;
          spans = spans op ~mark:t.mark cycles;
        }
  end

let count t = Latency.count t.lat
let latency t = t.lat
let totals t = t.totals
let slowest t = t.slow

let tail_components t =
  List.fold_left (fun acc s -> add_components acc s.comps) zero_components t.slow

let merge_into ~dst src =
  if dst == src then invalid_arg "Oplat.merge_into: src is dst";
  Latency.merge_into ~dst:dst.lat src.lat;
  dst.totals <- add_components dst.totals src.totals;
  dst.next_seq <- dst.next_seq + src.next_seq;
  List.iter (admit dst) src.slow

let components_json ~total c =
  let frac n = Json.Float (float_of_int n /. float_of_int (max 1 total)) in
  Json.Obj
    [
      ("base", frac c.base);
      ("check", frac c.check);
      ("translation", frac c.translation);
      ("stall", frac c.stall);
      ("media", frac c.media);
    ]

let summary_json t =
  match Latency.summary_json t.lat with
  | Json.Obj fields ->
      let tail = tail_components t in
      Json.Obj
        (fields
        @ [ ("tail", components_json ~total:(components_total tail) tail) ])
  | other -> other

(* One thread per retained op: its root span carries the op's cycles
   and components, its marker spans nest inside; simulated cycles are
   the timestamps. *)
let write_slow_trace oc t =
  let span tid ?(args = []) (name, start, stop) =
    [
      (tid, start, { Telemetry.ename = name; phase = Telemetry.Begin; args });
      (tid, stop, { Telemetry.ename = name; phase = Telemetry.End; args = [] });
    ]
  in
  Telemetry.write_trace oc
    (List.concat
       (List.mapi
          (fun tid s ->
            match s.spans with
            | [] -> []
            | root :: subs ->
                span tid root
                  ~args:
                    [
                      ("cycles", s.cycles);
                      ("seq", s.seq);
                      ("base", s.comps.base);
                      ("check", s.comps.check);
                      ("translation", s.comps.translation);
                      ("stall", s.comps.stall);
                      ("media", s.comps.media);
                    ]
                @ List.concat_map (span tid) subs)
          t.slow))
