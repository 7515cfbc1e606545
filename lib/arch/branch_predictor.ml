(* A gshare branch predictor: global history XOR branch PC indexes a
   table of 2-bit saturating counters.  The Pentium-M-class predictor of
   Table IV is approximated by this structure with an 8-cycle
   misprediction penalty charged by the CPU model. *)

type t = {
  table : Bytes.t; (* 2-bit counters, one per byte for simplicity *)
  mask : int;
  history_mask : int;
  mutable history : int;
  mutable predictions : int;
  mutable mispredictions : int;
}

let create ~table_bits ~history_bits =
  let size = 1 lsl table_bits in
  {
    table = Bytes.make size '\002' (* weakly taken *);
    mask = size - 1;
    history_mask = (1 lsl history_bits) - 1;
    history = 0;
    predictions = 0;
    mispredictions = 0;
  }

let of_config (c : Config.t) =
  create ~table_bits:c.bp_table_bits ~history_bits:c.bp_history_bits

let index t ~pc = (pc lxor t.history) land t.mask

(* Record the outcome of a branch at [pc]; returns [true] if the
   predictor had it wrong (the CPU charges the penalty). *)
let branch t ~pc ~taken =
  let i = index t ~pc in
  let counter = Char.code (Bytes.get t.table i) in
  let predicted_taken = counter >= 2 in
  let counter' =
    if taken then (if counter < 3 then counter + 1 else 3)
    else if counter > 0 then counter - 1
    else 0
  in
  Bytes.set t.table i (Char.chr counter');
  t.history <- ((t.history lsl 1) lor Bool.to_int taken) land t.history_mask;
  t.predictions <- t.predictions + 1;
  let miss = predicted_taken <> taken in
  if miss then t.mispredictions <- t.mispredictions + 1;
  miss

let mispredictions t = t.mispredictions

let miss_rate t =
  if t.predictions = 0 then 0.0
  else float_of_int t.mispredictions /. float_of_int t.predictions

let reset_stats t =
  t.predictions <- 0;
  t.mispredictions <- 0
