(* Per-operation latency bracketing: cycle stamps around each top-level
   persistent operation, decomposed through the cycle-attribution
   machinery into five components that sum exactly to the op's cycles,
   plus a bounded deterministic reservoir of the slowest ops with their
   marker spans for Chrome-trace dumps.

   The probe state is a handful of mutable ints reused across ops, and
   the latency recorder's cells are preallocated, so the steady-state
   bracketing cost per op is two [Cpu.attribution] reads (each one
   small record) and integer arithmetic — nothing the timing model can
   observe. *)

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

let max_marks = 8

type t = {
  cell_label : string;
  k : int;
  lat : Latency.t;
  mutable totals : components;
  mutable next_seq : int;
  (* probe state, reused across ops *)
  mutable in_op : bool;
  mutable p_cycles : int;
  mutable p_base : int;
  mutable p_branch : int;
  mutable p_tlb : int;
  mutable p_cache : int;
  mutable p_mem : int;
  mutable p_xlate : int;
  mutable p_storep : int;
  mark_names : string array;
  mark_cycles : int array;
  mutable mark_len : int;
  mutable slow : sample list; (* sorted slowest first, length <= k *)
}

(* The telemetry-sink mirror of every recorder: op latencies also land
   in the current sink's "op.cycles" recorder (when telemetry is
   enabled), so stats documents and j1-vs-j4 merge checks see them. *)
let tl_op_cycles = Telemetry.latency "op.cycles"

let create ~cell () =
  {
    cell_label = cell;
    k = 8 (* slow-op reservoir capacity *);
    lat = Latency.create ();
    totals = zero_components;
    next_seq = 0;
    in_op = false;
    p_cycles = 0;
    p_base = 0;
    p_branch = 0;
    p_tlb = 0;
    p_cache = 0;
    p_mem = 0;
    p_xlate = 0;
    p_storep = 0;
    mark_names = Array.make max_marks "";
    mark_cycles = Array.make max_marks 0;
    mark_len = 0;
    slow = [];
  }

let op_begin t cpu =
  let a = Cpu.attribution cpu in
  t.in_op <- true;
  t.p_cycles <- Cpu.cycles cpu;
  t.p_base <- a.Cpu.base;
  t.p_branch <- a.Cpu.branch;
  t.p_tlb <- a.Cpu.tlb;
  t.p_cache <- a.Cpu.cache;
  t.p_mem <- a.Cpu.mem;
  t.p_xlate <- a.Cpu.xlate;
  t.p_storep <- a.Cpu.storep;
  t.mark_len <- 0

let mark t cpu name =
  if t.in_op && t.mark_len < max_marks then begin
    t.mark_names.(t.mark_len) <- name;
    t.mark_cycles.(t.mark_len) <- Cpu.cycles cpu - t.p_cycles;
    t.mark_len <- t.mark_len + 1
  end

(* Insert [s] into the sorted reservoir, dropping the least-slow sample
   when over capacity. *)
let admit t s =
  if t.k > 0 then begin
    let rec insert = function
      | [] -> [ s ]
      | x :: rest as l ->
          if compare_slowest s x < 0 then s :: l else x :: insert rest
    in
    let l = insert t.slow in
    t.slow <-
      (if List.length l > t.k then List.filteri (fun i _ -> i < t.k) l else l)
  end

let spans_of_marks t op cycles =
  let rec build i prev acc =
    if i >= t.mark_len then
      let acc =
        if prev < cycles && t.mark_len > 0 then (op, prev, cycles) :: acc
        else acc
      in
      List.rev acc
    else
      build (i + 1) t.mark_cycles.(i)
        ((t.mark_names.(i), prev, t.mark_cycles.(i)) :: acc)
  in
  (op, 0, cycles) :: build 0 0 []

let op_end t cpu op =
  if t.in_op then begin
    let a = Cpu.attribution cpu in
    let cycles = Cpu.cycles cpu - t.p_cycles in
    let comps =
      {
        base = a.Cpu.base - t.p_base + (a.Cpu.tlb - t.p_tlb)
               + (a.Cpu.cache - t.p_cache);
        check = a.Cpu.branch - t.p_branch;
        translation = a.Cpu.xlate - t.p_xlate;
        stall = a.Cpu.storep - t.p_storep;
        media = a.Cpu.mem - t.p_mem;
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
      t.k > 0
      && (List.length t.slow < t.k
         ||
         let floor = List.nth t.slow (List.length t.slow - 1) in
         cycles > floor.cycles)
    in
    if admits then
      admit t
        {
          op;
          seq;
          cell = t.cell_label;
          cycles;
          comps;
          spans = spans_of_marks t op cycles;
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

let write_slow_trace oc t =
  let rows =
    List.concat
      (List.mapi
         (fun tid s ->
           let span ?(args = []) name start stop =
             [
               Json.Obj
                 ([
                    ("name", Json.String name);
                    ("ph", Json.String "B");
                    ("pid", Json.Int 0);
                    ("tid", Json.Int tid);
                    ("ts", Json.Int start);
                  ]
                 @
                 match args with
                 | [] -> []
                 | args ->
                     [
                       ( "args",
                         Json.Obj
                           (List.map (fun (k, v) -> (k, Json.Int v)) args) );
                     ]);
               Json.Obj
                 [
                   ("name", Json.String name);
                   ("ph", Json.String "E");
                   ("pid", Json.Int 0);
                   ("tid", Json.Int tid);
                   ("ts", Json.Int stop);
                 ];
             ]
           in
           match s.spans with
           | [] -> []
           | (root, start, stop) :: subs ->
               span root start stop
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
               @ List.concat_map (fun (n, a, b) -> span n a b) subs)
         t.slow)
  in
  Json.to_channel oc
    (Json.Obj
       [
         ("traceEvents", Json.List rows);
         ("displayTimeUnit", Json.String "ms");
       ]);
  output_char oc '\n'
