(* HDR-style log-bucketed latency recorder.

   Slot layout: values 0 .. 2^p - 1 (p = precision_bits) map to slot v
   — exact, width-1 slots.  A value v >= 2^p with k = floor(log2 v)
   maps to slot

     2^p * (k - p) + (v lsr (k - p))

   where [v lsr (k - p)] is in [2^p, 2^(p+1)), so each power-of-two
   range [2^k, 2^(k+1)) is split into 2^p sub-buckets of width
   2^(k-p).  Reporting a slot's upper bound therefore overestimates any
   value in the slot by less than 2^(k-p) / 2^k = 2^-p — the
   documented relative error bound.  The slot index is monotone in v,
   so rank order is preserved and percentile extraction is a cumulative
   walk.

   Everything is plain mutable ints plus one preallocated int array:
   [record] allocates nothing. *)

let precision_bits = 5
let sub_count = 1 lsl precision_bits
let rel_error_bound = 1.0 /. float_of_int sub_count

(* Largest major bucket: OCaml ints are 63-bit, floor(log2 max_int) = 61. *)
let max_log2 = 61
let num_slots = sub_count * (max_log2 - precision_bits + 1) + sub_count

let[@inline] msb v =
  (* floor(log2 v) for v >= 1, by halving — allocation-free. *)
  let k = ref 0 and v = ref v in
  while !v > 1 do
    incr k;
    v := !v lsr 1
  done;
  !k

let slot_of v =
  if v < sub_count then if v < 0 then 0 else v
  else
    let k = msb v in
    (sub_count * (k - precision_bits)) + (v lsr (k - precision_bits))

(* Inverse: the largest value mapping to slot [s].  Slots below
   2 * sub_count are width-1 (slot s holds exactly value s). *)
let slot_upper_bound s =
  if s < 2 * sub_count then s
  else
    let k = (s / sub_count) + precision_bits - 1 in
    let m = (s mod sub_count) + sub_count in
    ((m + 1) lsl (k - precision_bits)) - 1

type t = {
  mutable count : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
  slots : int array;
}

let create () =
  { count = 0; sum = 0; vmin = max_int; vmax = 0; slots = Array.make num_slots 0 }

let record t v =
  let v = if v < 0 then 0 else v in
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v;
  let s = slot_of v in
  t.slots.(s) <- t.slots.(s) + 1

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0 else t.vmin
let max_value t = if t.count = 0 then 0 else t.vmax

let mean t =
  if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

let percentile t q =
  if t.count = 0 then 0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int t.count)) in
    let rank = if rank < 1 then 1 else if rank > t.count then t.count else rank in
    let cum = ref 0 and s = ref 0 and found = ref (-1) in
    while !found < 0 && !s < num_slots do
      cum := !cum + t.slots.(!s);
      if !cum >= rank then found := !s;
      incr s
    done;
    let ub = slot_upper_bound (if !found < 0 then num_slots - 1 else !found) in
    if ub > t.vmax then t.vmax else ub
  end

let merge_into ~dst src =
  if dst == src then invalid_arg "Latency.merge_into: src is dst";
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum + src.sum;
  if src.vmin < dst.vmin then dst.vmin <- src.vmin;
  if src.vmax > dst.vmax then dst.vmax <- src.vmax;
  Array.iteri
    (fun i n -> if n <> 0 then dst.slots.(i) <- dst.slots.(i) + n)
    src.slots

type summary = {
  count : int;
  sum : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  p999 : int;
  max : int;
}

let summary (t : t) : summary =
  {
    count = t.count;
    sum = t.sum;
    mean = mean t;
    p50 = percentile t 0.50;
    p90 = percentile t 0.90;
    p99 = percentile t 0.99;
    p999 = percentile t 0.999;
    max = max_value t;
  }

let summary_json t =
  let s = summary t in
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("sum", Json.Int s.sum);
      ("mean", Json.Float s.mean);
      ("p50", Json.Int s.p50);
      ("p90", Json.Int s.p90);
      ("p99", Json.Int s.p99);
      ("p999", Json.Int s.p999);
      ("max", Json.Int s.max);
    ]
