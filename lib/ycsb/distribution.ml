(* Key-popularity distributions in the style of the YCSB core
   generators: uniform, (scrambled) zipfian with Gray's rejection-free
   sampler, and "latest", which is a zipfian over recency so that
   recently inserted records are the most likely to be read — the
   distribution the paper's harness uses. *)

let theta = 0.99 (* YCSB's default zipfian constant *)

type t =
  | Uniform of { mutable n : int }
  | Zipfian of zipf
  | Scrambled_zipfian of zipf
  | Latest of zipf
  | Hotspot of { mutable n : int; hot_n : int; op_frac : float }

and zipf = {
  mutable n : int;
  mutable zeta_n : float;
  alpha : float;
  zeta2 : float;
}

let zeta n =
  let s = ref 0.0 in
  for i = 1 to n do
    s := !s +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !s

let make_zipf n =
  if n < 1 then invalid_arg "Distribution: need at least one record";
  { n; zeta_n = zeta n; alpha = 1.0 /. (1.0 -. theta); zeta2 = zeta 2 }

let uniform n = Uniform { n }
let zipfian n = Zipfian (make_zipf n)
let scrambled_zipfian n = Scrambled_zipfian (make_zipf n)
let latest n = Latest (make_zipf n)

(* YCSB's hotspot generator: a fixed hot set — the first [hot_frac]
   of the initial population — receives [op_frac] of the draws; the
   remainder go uniformly to the cold records.  The hot set does not
   grow with the population, so a serving cache sized to hold it has a
   closed-form expected hit rate of [op_frac]. *)
let hotspot ?(hot_frac = 0.01) ?(op_frac = 0.9) n =
  if n < 1 then invalid_arg "Distribution: need at least one record";
  if hot_frac <= 0.0 || hot_frac > 1.0 then
    invalid_arg "Distribution.hotspot: hot_frac must be in (0, 1]";
  if op_frac < 0.0 || op_frac > 1.0 then
    invalid_arg "Distribution.hotspot: op_frac must be in [0, 1]";
  let hot_n = max 1 (int_of_float (hot_frac *. float_of_int n)) in
  Hotspot { n; hot_n = min hot_n n; op_frac }

(* splitmix64 finalizer, used to scramble zipfian ranks so popular keys
   scatter over the key space. *)
let scramble k =
  let k = Int64.mul (Int64.logxor k (Int64.shift_right_logical k 30))
      0xbf58476d1ce4e5b9L in
  let k = Int64.mul (Int64.logxor k (Int64.shift_right_logical k 27))
      0x94d049bb133111ebL in
  Int64.logxor k (Int64.shift_right_logical k 31)

(* Gray et al.'s zipfian sampler: rank 0 is the most popular. *)
let sample_zipf z rng =
  let u = Random.State.float rng 1.0 in
  let uz = u *. z.zeta_n in
  if uz < 1.0 then 0
  else if uz < 1.0 +. Float.pow 0.5 theta then 1
  else
    let eta =
      (1.0 -. Float.pow (2.0 /. float_of_int z.n) (1.0 -. theta))
      /. (1.0 -. (z.zeta2 /. z.zeta_n))
    in
    let r =
      int_of_float
        (float_of_int z.n *. Float.pow ((eta *. u) -. eta +. 1.0) z.alpha)
    in
    min (max r 0) (z.n - 1)

(* Extend the population by one record (after an insert).  The zeta sum
   grows incrementally — O(1), exact. *)
let grow t =
  match t with
  | Uniform u -> u.n <- u.n + 1
  | Hotspot h -> h.n <- h.n + 1
  | Zipfian z | Scrambled_zipfian z | Latest z ->
      z.n <- z.n + 1;
      z.zeta_n <- z.zeta_n +. (1.0 /. Float.pow (float_of_int z.n) theta)

let population = function
  | Uniform u -> u.n
  | Hotspot h -> h.n
  | Zipfian z | Scrambled_zipfian z | Latest z -> z.n

let hot_set_size = function Hotspot h -> h.hot_n | _ -> 0

(* Draw a record index in [0, population). *)
let sample t rng =
  match t with
  | Uniform u -> Random.State.int rng u.n
  | Zipfian z -> sample_zipf z rng
  | Scrambled_zipfian z ->
      (* Offset before scrambling: splitmix's finalizer fixes 0. *)
      let r = sample_zipf z rng in
      Int64.to_int
        (Int64.rem
           (Int64.logand (scramble (Int64.of_int (r + 0x9E3779B9))) Int64.max_int)
           (Int64.of_int z.n))
  | Latest z ->
      (* Most recent record (index n-1) is rank 0. *)
      let r = sample_zipf z rng in
      z.n - 1 - r
  | Hotspot h ->
      if Random.State.float rng 1.0 < h.op_frac then
        Random.State.int rng h.hot_n
      else if h.n > h.hot_n then h.hot_n + Random.State.int rng (h.n - h.hot_n)
      else Random.State.int rng h.n
