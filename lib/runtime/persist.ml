(* Buffered persistency engine: the retention-model spectrum between
   "every store persists in place" (eager, the historical behavior) and
   "dirty lines drain to media in batches" (epoch / lazy).

   The simulated media ([Physmem]) always holds the *newest* value of
   every word — stores land immediately so loads stay cheap.  Under a
   relaxed model this engine additionally remembers, per dirty word,
   the value that is actually durable (the value the word had at the
   last drain).  A drain flushes whole 64-byte lines with explicitly
   modeled flush+fence µ-events and forgets the saved values; a crash
   pokes every still-buffered word back to its durable value, so the
   rebooted machine sees exactly what a real buffered-persistency part
   would have retained.

   Undo-log writes (and recovery replay) run inside [with_eager]: they
   reach media immediately, which is the write-ahead guarantee "log
   records reach media before their epoch's data drains". *)

module Physmem = Nvml_simmem.Physmem
module Fi = Nvml_simmem.Fi
module Layout = Nvml_simmem.Layout
module Cpu = Nvml_arch.Cpu
module Config = Nvml_arch.Config

type model = Eager | Epoch of { interval : int } | Lazy_on_detach

let model_name = function
  | Eager -> "eager"
  | Epoch { interval } -> Fmt.str "epoch:%d" interval
  | Lazy_on_detach -> "lazy"

let is_decimal = String.for_all (fun c -> c >= '0' && c <= '9')

let model_of_string s =
  match String.lowercase_ascii s with
  | "eager" -> Ok Eager
  | "lazy" -> Ok Lazy_on_detach
  | s when String.starts_with ~prefix:"epoch:" s -> (
      let digits = String.sub s 6 (String.length s - 6) in
      if digits = "" then
        Error "missing epoch interval in \"epoch:\" (expected epoch:N, N >= 1)"
      else if not (is_decimal digits) then
        Error
          (Fmt.str "bad epoch interval %S in %S (expected decimal digits)"
             digits s)
      else
        match int_of_string_opt digits with
        | Some n when n >= 1 -> Ok (Epoch { interval = n })
        | Some n -> Error (Fmt.str "epoch interval must be >= 1, got %d" n)
        | None -> Error (Fmt.str "epoch interval %s is out of range" digits))
  | _ ->
      Error
        (Fmt.str "unknown persistency model %S (expected eager, epoch:N or lazy)"
           s)

let is_eager = function Eager -> true | Epoch _ | Lazy_on_detach -> false

(* A 64-byte line is 8 consecutive words; [frame * lines_per_page +
   word_index / 8] is a global line id, and [word_index land 7] the
   word's bit in its line's mask. *)
let words_per_line = 8
let lines_per_page = Layout.words_per_page / words_per_line

(* Line id -> slot.  Ids are dense within a pool, but a stride through
   pages must not alias into a few buckets, so the hash folds the high
   bits of a multiplicative mix into the low ones the table indexes by. *)
module Lines = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x =
    let h = x * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)
end)

(* The dirty set, indexed by line: [index] maps a line id to a slot
   [s < slots]; [line_of.(s)] is the line id, byte [s] of [mask] its
   8-bit set of buffered words, and the int64 at [s * 8 + w] of
   [durable] word [w]'s durable value.  A slot whose mask is empty (its
   only buffered word was written through) is dead weight that the next
   drain or crash forgets.  The arrays start empty and grow on the first
   buffered store, so an eager machine never allocates them. *)
type t = {
  model : model;
  pm : Physmem.t;
  index : int Lines.t;
  mutable slots : int;
  mutable line_of : int array;
  mutable mask : Bytes.t;
  mutable durable : Bytes.t;
  mutable order : int array; (* drain scratch: slots sorted by line *)
  mutable words : int; (* buffered words, the popcount of every mask *)
  mutable passthrough : int; (* depth of [with_eager] nesting *)
  mutable drain_hook : (unit -> unit) option;
  (* event counts (always maintained; timing mode charges cycles too) *)
  mutable stores_buffered : int;
  mutable flushes : int;
  mutable fences : int;
  mutable drains : int;
  mutable crash_dropped : int;
}

let mask t s = Char.code (Bytes.unsafe_get t.mask s)
let set_mask t s m = Bytes.unsafe_set t.mask s (Char.unsafe_chr m)

(* Byte offset of slot [s]'s word [w] in [durable]. *)
let durable_ofs s w = ((s * words_per_line) + w) * 8
let durable_at t s w = Bytes.get_int64_ne t.durable (durable_ofs s w)

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

let grow t =
  let cap = max 64 (2 * Array.length t.line_of) in
  let line_of = Array.make cap 0 in
  Array.blit t.line_of 0 line_of 0 t.slots;
  t.line_of <- line_of;
  t.mask <- Bytes.extend t.mask 0 (cap - Bytes.length t.mask);
  t.durable <- Bytes.extend t.durable 0 (durable_ofs cap 0 - Bytes.length t.durable);
  t.order <- Array.make cap 0

let slot_for t line =
  match Lines.find_opt t.index line with
  | Some s -> s
  | None ->
      if t.slots = Array.length t.line_of then grow t;
      let s = t.slots in
      t.line_of.(s) <- line;
      set_mask t s 0;
      Lines.add t.index line s;
      t.slots <- s + 1;
      s

let note t ~frame ~word_index ~old_value =
  let line = (frame * lines_per_page) + (word_index lsr 3) in
  let w = word_index land 7 in
  if t.passthrough > 0 then begin
    match Lines.find_opt t.index line with
    | Some s when mask t s land (1 lsl w) <> 0 ->
        set_mask t s (mask t s lxor (1 lsl w));
        t.words <- t.words - 1
    | Some _ | None -> ()
  end
  else begin
    let s = slot_for t line in
    let m = mask t s in
    if m land (1 lsl w) = 0 then begin
      set_mask t s (m lor (1 lsl w));
      Bytes.set_int64_ne t.durable (durable_ofs s w) old_value;
      t.words <- t.words + 1;
      t.stores_buffered <- t.stores_buffered + 1
    end
  end

let create model pm =
  let t =
    {
      model;
      pm;
      index = Lines.create 16;
      slots = 0;
      line_of = [||];
      mask = Bytes.empty;
      durable = Bytes.empty;
      order = [||];
      words = 0;
      passthrough = 0;
      drain_hook = None;
      stores_buffered = 0;
      flushes = 0;
      fences = 0;
      drains = 0;
      crash_dropped = 0;
    }
  in
  (* Eager machines leave the note unarmed: the write fast path pays
     only a null test and behavior is bit-identical to the engine not
     existing at all. *)
  if not (is_eager model) then
    Physmem.set_persist_note pm
      (Some (fun ~frame ~word_index ~old_value -> note t ~frame ~word_index ~old_value));
  t

let model t = t.model
let pending_words t = t.words

let with_eager t f =
  if is_eager t.model then f ()
  else begin
    t.passthrough <- t.passthrough + 1;
    Fun.protect ~finally:(fun () -> t.passthrough <- t.passthrough - 1) f
  end

let set_drain_hook t hook = t.drain_hook <- hook
let buffering t = (not (is_eager t.model)) && t.passthrough = 0

(* The durable value of a word: the buffered epoch-start value if the
   word is dirty, the media value otherwise.  This is what a crash at
   this instant would retain — the contract oracle's ground truth. *)
let durable_value t ~frame ~word_index =
  let w = word_index land 7 in
  match Lines.find_opt t.index ((frame * lines_per_page) + (word_index lsr 3)) with
  | Some s when mask t s land (1 lsl w) <> 0 -> durable_at t s w
  | Some _ | None -> Physmem.peek t.pm ~frame ~word_index

(* The still-buffered words of one 64-byte line, as (word index within
   the frame, durable value) pairs in address order — what a crash
   mid-flush of this line is tearing between. *)
let buffered_in_line t ~frame ~line =
  match Lines.find_opt t.index ((frame * lines_per_page) + line) with
  | None -> []
  | Some s ->
      let m = mask t s in
      List.filter_map
        (fun w ->
          if m land (1 lsl w) = 0 then None
          else Some ((line * words_per_line) + w, durable_at t s w))
        (List.init words_per_line Fun.id)

(* Forget every slot whose mask is empty, moving the survivors down to
   a dense prefix.  After a completed drain or a crash that is every
   slot, so the cost is the slots in use, never the table's history. *)
let compact t =
  let live = ref 0 in
  for s = 0 to t.slots - 1 do
    let line = t.line_of.(s) in
    if mask t s = 0 then Lines.remove t.index line
    else begin
      let d = !live in
      if d <> s then begin
        t.line_of.(d) <- line;
        set_mask t d (mask t s);
        Bytes.blit t.durable (durable_ofs s 0) t.durable (durable_ofs d 0)
          (durable_ofs 1 0);
        Lines.replace t.index line d
      end;
      live := d + 1
    end
  done;
  t.slots <- !live

(* In-place heapsort of [order.(0 .. n-1)] by line id: [Array.sort]
   cannot sort a prefix of the reused scratch array. *)
let sort_by_line t n =
  let order = t.order and line_of = t.line_of in
  let key i = line_of.(order.(i)) in
  let swap i j =
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  in
  let rec sift i n =
    let l = (2 * i) + 1 in
    if l < n then begin
      let c = if l + 1 < n && key (l + 1) > key l then l + 1 else l in
      if key c > key i then begin
        swap i c;
        sift c n
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    swap 0 last;
    sift 0 last
  done

(* Drain every buffered line to media: per line, announce a
   [Flush_line] µ-event (a fault injector may raise here — the line and
   everything after it is then lost), mark the line's words durable and
   charge the flush; then one [Fence] and the registered drain hook
   (undo-log truncation).  Lines drain in ascending address order, so a
   drain is deterministic regardless of the order lines were dirtied. *)
let drain t ~cpu ~cfg =
  if t.words > 0 then begin
    t.drains <- t.drains + 1;
    let n = ref 0 in
    for s = 0 to t.slots - 1 do
      if mask t s <> 0 then begin
        t.order.(!n) <- s;
        incr n
      end
    done;
    sort_by_line t !n;
    Fun.protect
      ~finally:(fun () -> compact t)
      (fun () ->
        for i = 0 to !n - 1 do
          let s = t.order.(i) in
          let line = t.line_of.(s) in
          Physmem.fire t.pm
            (Fi.Flush_line
               { frame = line / lines_per_page; line = line mod lines_per_page });
          t.words <- t.words - popcount (mask t s);
          set_mask t s 0;
          t.flushes <- t.flushes + 1;
          Cpu.persist_stall cpu cfg.Config.flush_latency
        done);
    Physmem.fire t.pm Fi.Fence;
    t.fences <- t.fences + 1;
    Cpu.persist_stall cpu cfg.Config.fence_latency;
    match t.drain_hook with None -> () | Some f -> f ()
  end

(* Power failure: every still-buffered word never reached media — poke
   its durable value back over the newest one.  [poke] bypasses the
   store path's hooks, which is exactly right: this is not a store, it
   is the revelation of what the media actually held. *)
let crash t =
  for s = 0 to t.slots - 1 do
    let m = mask t s in
    let line = t.line_of.(s) in
    let frame = line / lines_per_page in
    let base = line mod lines_per_page * words_per_line in
    for w = 0 to words_per_line - 1 do
      if m land (1 lsl w) <> 0 then
        Physmem.poke t.pm ~frame ~word_index:(base + w) (durable_at t s w)
    done;
    set_mask t s 0
  done;
  t.crash_dropped <- t.crash_dropped + t.words;
  t.words <- 0;
  compact t;
  t.passthrough <- 0;
  t.drain_hook <- None

(* --- telemetry ------------------------------------------------------- *)

module Telemetry = Nvml_telemetry.Telemetry

let c_buffered = Telemetry.counter "persist.stores_buffered"
let c_flushes = Telemetry.counter "persist.flushes"
let c_fences = Telemetry.counter "persist.fences"
let c_drains = Telemetry.counter "persist.drains"
let c_dropped = Telemetry.counter "persist.crash_dropped"

let publish t =
  Telemetry.add c_buffered t.stores_buffered;
  Telemetry.add c_flushes t.flushes;
  Telemetry.add c_fences t.fences;
  Telemetry.add c_drains t.drains;
  Telemetry.add c_dropped t.crash_dropped

let flushes t = t.flushes
let fences t = t.fences
let drains t = t.drains
let stores_buffered t = t.stores_buffered
let crash_dropped t = t.crash_dropped
