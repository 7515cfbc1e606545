(* Deterministic media-error injection for the simulated NVM.

   Placement is a pure hash of (seed, frame, word): whether a location
   is faulty — and how — never depends on when or how often it is read.
   The only mutable state is the healed set (locations re-written since
   the fault surfaced) and local statistics, both owned by the injector
   instance, so per-domain injectors are share-nothing and a --jobs N
   run replays the exact faults of the sequential one. *)

module Physmem = Nvml_simmem.Physmem
module Layout = Nvml_simmem.Layout
module Telemetry = Nvml_telemetry.Telemetry

exception Media_error of string

type kind = Bit_flip | Poison_line | Transient

let all_kinds = [ Bit_flip; Poison_line; Transient ]

let kind_name = function
  | Bit_flip -> "flip"
  | Poison_line -> "poison"
  | Transient -> "transient"

let words_per_line = 8
let retry_budget = 4

let c_flips = Telemetry.counter "media.read.flips"
let c_poisons = Telemetry.counter "media.read.poisons"
let c_transients = Telemetry.counter "media.read.transient_faults"
let c_retries = Telemetry.counter "media.read.retries"
let c_heals = Telemetry.counter "media.healed_words"

type t = {
  seed : int;
  rate : float;
  flips : bool;
  poisons : bool;
  transients : bool;
  healed : (int, unit) Hashtbl.t; (* key: frame * words_per_page + word *)
  mutable flips_served : int;
  mutable poisons_served : int;
  mutable transients_served : int;
}

let create ?(kinds = all_kinds) ~rate ~seed () =
  {
    seed;
    rate;
    flips = List.mem Bit_flip kinds;
    poisons = List.mem Poison_line kinds;
    transients = List.mem Transient kinds;
    healed = Hashtbl.create 64;
    flips_served = 0;
    poisons_served = 0;
    transients_served = 0;
  }

(* SplitMix64-style finalizer: decorrelates (seed, frame, word, salt)
   into 64 well-mixed bits.  The low 32 bits serve as a uniform draw
   against [rate]; higher bits pick the flipped bit / failure count. *)
let mix (a : int64) (b : int64) =
  let z = Int64.add (Int64.mul a 0x9E3779B97F4A7C15L) b in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let hash t ~salt ~frame ~index =
  mix
    (mix (Int64.of_int ((t.seed * 4) + salt)) (Int64.of_int frame))
    (Int64.of_int index)

let hits t h =
  Int64.to_float (Int64.logand h 0xFFFFFFFFL) /. 4294967296.0 < t.rate

(* Pure placement: poison (line-granular) shadows flip shadows
   transient, so one word has at most one fault kind.  Only NVM frames
   take faults. *)
let decide t ~frame ~word_index =
  if t.rate <= 0.0 || frame < Layout.nvm_phys_frame_base then None
  else if
    t.poisons && hits t (hash t ~salt:1 ~frame ~index:(word_index / words_per_line))
  then Some Poison_line
  else if t.flips && hits t (hash t ~salt:2 ~frame ~index:word_index) then
    Some Bit_flip
  else if t.transients && hits t (hash t ~salt:3 ~frame ~index:word_index) then
    Some Transient
  else None

let key ~frame ~word_index = (frame * Layout.words_per_page) + word_index
let healed t ~frame ~word_index = Hashtbl.mem t.healed (key ~frame ~word_index)

let on_read t ~frame ~word_index v =
  match decide t ~frame ~word_index with
  | None -> v
  | Some _ when healed t ~frame ~word_index -> v
  | Some Poison_line ->
      t.poisons_served <- t.poisons_served + 1;
      Telemetry.incr c_poisons;
      raise
        (Media_error
           (Fmt.str "uncorrectable poisoned line at frame %d line %d" frame
              (word_index / words_per_line)))
  | Some Bit_flip ->
      t.flips_served <- t.flips_served + 1;
      Telemetry.incr c_flips;
      let bit =
        Int64.to_int
          (Int64.logand
             (Int64.shift_right_logical (hash t ~salt:2 ~frame ~index:word_index) 32)
             63L)
      in
      Int64.logxor v (Int64.shift_left 1L bit)
  | Some Transient ->
      (* The device fails 1–2 reads deterministically, then delivers the
         data; the retry loop is internal, only its cost is visible. *)
      let fails =
        1
        + Int64.to_int
            (Int64.logand
               (Int64.shift_right_logical (hash t ~salt:3 ~frame ~index:word_index) 40)
               1L)
      in
      t.transients_served <- t.transients_served + 1;
      Telemetry.incr c_transients;
      Telemetry.add c_retries fails;
      if fails >= retry_budget then
        raise
          (Media_error
             (Fmt.str "read of frame %d word %d failed %d retries" frame
                word_index retry_budget))
      else v

(* A store re-establishes the cell: the fault is gone until the media
   model is re-seeded.  Only locations that actually carry a fault are
   tracked, so the healed set stays small. *)
let on_write t ~frame ~word_index =
  match decide t ~frame ~word_index with
  | None -> ()
  | Some _ ->
      let k = key ~frame ~word_index in
      if not (Hashtbl.mem t.healed k) then begin
        Hashtbl.replace t.healed k ();
        Telemetry.incr c_heals
      end

let attach phys t =
  Physmem.set_media_read phys
    (Some (fun ~frame ~word_index v -> on_read t ~frame ~word_index v));
  Physmem.set_media_write_note phys
    (Some (fun ~frame ~word_index -> on_write t ~frame ~word_index))

let flips_served t = t.flips_served
let poisons_served t = t.poisons_served
let transients_served t = t.transients_served
let healed_words t = Hashtbl.length t.healed
