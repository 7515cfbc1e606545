(* The cross-layer telemetry subsystem: counters and HDR latency
   recorders registered by name, a bounded ring-buffer event tracer
   with spans, and per-domain sinks that the [nvml_exec] pool merges
   deterministically at join — so [--jobs N] telemetry equals
   [--jobs 1] telemetry.

   Design rules:

   - Metric *names* live in one process-wide registry (mutex-guarded;
     structures register their metrics at module-initialization time,
     worker domains may mint more while running).  A registered id is
     stable for the life of the process.
   - Metric *values* live in sinks.  Each domain has a current sink
     (domain-local state); [Pool.run] gives every task a fresh sink and
     merges them into the submitter's sink in submission order, which
     makes parallel telemetry bit-identical to sequential telemetry.
   - Everything is gated on the process-wide [enabled] flag, and only
     this module tests it: [incr], [add], [record] and [event] inline
     the test at their call sites and keep the recording body out of
     line, so a call with recording off (the shipped default) costs
     one atomic load and a branch.  [recording] scopes the flag on
     over a fresh sink.  The timing model never reads telemetry, so
     enabling it cannot change a single simulated cycle.
   - Trace events carry no wall-clock timestamps: ordering is logical
     (position in the merged stream), so traces are deterministic too.
     Cycle attribution comes from the simulated counters, which are
     deterministic by construction. *)

(* --- enable flag ---------------------------------------------------------- *)

let flag = Atomic.make false

let enabled () = Atomic.get flag [@@inline]
let set_enabled b = Atomic.set flag b

(* --- registry -------------------------------------------------------------- *)

type kind = Counter | Lat

type counter = int
type latency = int

let registry_lock = Mutex.create ()
let ids : (string, int) Hashtbl.t = Hashtbl.create 128
let names : string array ref = ref (Array.make 0 "")
let kinds : kind array ref = ref (Array.make 0 Counter)
let registered = ref 0

let intern kind name =
  Mutex.lock registry_lock;
  let id =
    match Hashtbl.find_opt ids name with
    | Some id ->
        if !kinds.(id) <> kind then begin
          Mutex.unlock registry_lock;
          invalid_arg
            (Printf.sprintf "Telemetry: %S registered with a different kind"
               name)
        end;
        id
    | None ->
        let id = !registered in
        if id >= Array.length !names then begin
          let cap = max 64 (2 * Array.length !names) in
          let ns = Array.make cap "" and ks = Array.make cap Counter in
          Array.blit !names 0 ns 0 id;
          Array.blit !kinds 0 ks 0 id;
          names := ns;
          kinds := ks
        end;
        !names.(id) <- name;
        !kinds.(id) <- kind;
        incr registered;
        Hashtbl.replace ids name id;
        id
  in
  Mutex.unlock registry_lock;
  id

let counter name = intern Counter name
let latency name = intern Lat name

(* A stable snapshot of (id, name, kind) rows for dump functions. *)
let registry_rows () =
  Mutex.lock registry_lock;
  let n = !registered in
  let rows = List.init n (fun id -> (id, !names.(id), !kinds.(id))) in
  Mutex.unlock registry_lock;
  rows

(* --- trace events ----------------------------------------------------------- *)

type phase = Begin | End | Instant

type event = { ename : string; phase : phase; args : (string * int) list }

let default_trace_capacity = ref 8192
let set_trace_capacity n = default_trace_capacity := max 0 n

(* --- sinks -------------------------------------------------------------------- *)

type sink = {
  mutable counters : int array; (* indexed by registry id *)
  mutable lats : Latency.t option array;
  ring : event option array; (* bounded tracer; oldest overwritten *)
  mutable ring_start : int; (* index of the oldest event *)
  mutable ring_len : int;
  mutable events_total : int; (* all events ever offered to the ring *)
}

let fresh_sink () =
  {
    counters = Array.make 0 0;
    lats = Array.make 0 None;
    ring = Array.make !default_trace_capacity None;
    ring_start = 0;
    ring_len = 0;
    events_total = 0;
  }

(* The current sink of this domain.  Workers get a fresh one; the pool
   swaps in a per-task sink around each task it runs. *)
let sink_key = Domain.DLS.new_key fresh_sink

let current_sink () = Domain.DLS.get sink_key

let run_with_sink s f =
  let saved = Domain.DLS.get sink_key in
  Domain.DLS.set sink_key s;
  Fun.protect ~finally:(fun () -> Domain.DLS.set sink_key saved) f

let ensure_counters s id =
  if id >= Array.length s.counters then begin
    let cap = max 64 (max (id + 1) (2 * Array.length s.counters)) in
    let a = Array.make cap 0 in
    Array.blit s.counters 0 a 0 (Array.length s.counters);
    s.counters <- a
  end

let ensure_lat s id =
  if id >= Array.length s.lats then begin
    let cap = max 64 (max (id + 1) (2 * Array.length s.lats)) in
    let a = Array.make cap None in
    Array.blit s.lats 0 a 0 (Array.length s.lats);
    s.lats <- a
  end;
  match s.lats.(id) with
  | Some l -> l
  | None ->
      let l = Latency.create () in
      s.lats.(id) <- Some l;
      l

(* --- recording --------------------------------------------------------------- *)

(* Each recording call is the flag test, inlined at the call site,
   around a body kept out of line: with recording off a call costs one
   atomic load and a branch, and callers never test the flag. *)

let[@inline never] add_on c n =
  let s = current_sink () in
  ensure_counters s c;
  s.counters.(c) <- s.counters.(c) + n

let[@inline] add c n = if enabled () then add_on c n
let[@inline] incr c = if enabled () then add_on c 1

let[@inline never] record_on l v =
  Latency.record (ensure_lat (current_sink ()) l) v

let[@inline] record l v = if enabled () then record_on l v

let push_event s e =
  s.events_total <- s.events_total + 1;
  let cap = Array.length s.ring in
  if cap > 0 then
    if s.ring_len < cap then begin
      s.ring.((s.ring_start + s.ring_len) mod cap) <- Some e;
      s.ring_len <- s.ring_len + 1
    end
    else begin
      (* Full: overwrite the oldest. *)
      s.ring.(s.ring_start) <- Some e;
      s.ring_start <- (s.ring_start + 1) mod cap
    end

let[@inline never] event_on args ename =
  let args = Option.value args ~default:[] in
  push_event (current_sink ()) { ename; phase = Instant; args }

let[@inline] event ?args ename = if enabled () then event_on args ename

let span ?(args = []) ename f =
  if not (enabled ()) then f ()
  else begin
    push_event (current_sink ()) { ename; phase = Begin; args };
    Fun.protect
      ~finally:(fun () ->
        push_event (current_sink ()) { ename; phase = End; args = [] })
      f
  end

let recording f =
  let was = Atomic.exchange flag true in
  Fun.protect
    ~finally:(fun () -> Atomic.set flag was)
    (fun () -> run_with_sink (fresh_sink ()) f)

(* --- merge -------------------------------------------------------------------- *)

(* Merge [src] into [dst], appending trace events after [dst]'s.
   Applied in submission order at pool join, this reproduces the
   sequential stream: counters and latency cells commute, and the
   bounded ring drops exactly the events a sequential run would also
   have dropped (an overwritten event is always older than the [capacity]
   events that follow it in the same sink). *)
let merge_into ~dst src =
  if dst == src then invalid_arg "Telemetry.merge_into: src is dst";
  Array.iteri
    (fun id n ->
      if n <> 0 then begin
        ensure_counters dst id;
        dst.counters.(id) <- dst.counters.(id) + n
      end)
    src.counters;
  Array.iteri
    (fun id l ->
      match l with
      | None -> ()
      | Some l -> Latency.merge_into ~dst:(ensure_lat dst id) l)
    src.lats;
  let dropped_before = src.events_total - src.ring_len in
  for i = 0 to src.ring_len - 1 do
    match src.ring.((src.ring_start + i) mod Array.length src.ring) with
    | Some e -> push_event dst e
    | None -> ()
  done;
  dst.events_total <- dst.events_total + dropped_before

(* --- reading ------------------------------------------------------------------- *)

let value c =
  let s = current_sink () in
  if c < Array.length s.counters then s.counters.(c) else 0

(* Sorted by name, every registered counter included (zeros too), so
   the dump schema is independent of execution order. *)
let counters_snapshot () =
  let s = current_sink () in
  registry_rows ()
  |> List.filter_map (fun (id, name, kind) ->
         match kind with
         | Counter ->
             Some
               (name, if id < Array.length s.counters then s.counters.(id) else 0)
         | Lat -> None)
  |> List.sort compare

let lats_snapshot () =
  let s = current_sink () in
  registry_rows ()
  |> List.filter_map (fun (id, name, kind) ->
         match kind with
         | Lat when id < Array.length s.lats -> (
             match s.lats.(id) with
             | Some l when Latency.count l > 0 -> Some (name, l)
             | _ -> None)
         | _ -> None)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let events_snapshot () =
  let s = current_sink () in
  List.init s.ring_len (fun i ->
      match s.ring.((s.ring_start + i) mod Array.length s.ring) with
      | Some e -> e
      | None -> assert false)

let events_total () = (current_sink ()).events_total
let events_dropped () =
  let s = current_sink () in
  s.events_total - s.ring_len

let reset_current () =
  let s = current_sink () in
  Array.fill s.counters 0 (Array.length s.counters) 0;
  Array.fill s.lats 0 (Array.length s.lats) None;
  Array.fill s.ring 0 (Array.length s.ring) None;
  s.ring_start <- 0;
  s.ring_len <- 0;
  s.events_total <- 0

(* --- dumps ---------------------------------------------------------------------- *)

let stats_json ~derived () =
  let counters =
    List.map (fun (name, v) -> (name, Json.Int v)) (counters_snapshot ())
  in
  let lats =
    List.map (fun (name, l) -> (name, Latency.summary_json l)) (lats_snapshot ())
  in
  Json.Obj
    [
      ("schema", Json.Int 1);
      ( "derived",
        Json.Obj
          (List.map (fun (name, v) -> (name, Json.Float v)) derived) );
      ("counters", Json.Obj counters);
      ("latencies", Json.Obj lats);
      ("events_total", Json.Int (events_total ()));
      ("events_dropped", Json.Int (events_dropped ()));
    ]

let write_stats_json ?(derived = []) oc =
  Json.to_channel oc (stats_json ~derived ());
  output_char oc '\n'

(* Chrome trace_event format (JSON Object Format), loadable in
   chrome://tracing or Perfetto.  Every row is process 0; [tid] and
   [ts] (in "microseconds") are the caller's. *)
let write_trace oc rows =
  let row (tid, ts, e) =
    let ph = match e.phase with Begin -> "B" | End -> "E" | Instant -> "i" in
    Json.Obj
      ([
         ("name", Json.String e.ename);
         ("ph", Json.String ph);
         ("pid", Json.Int 0);
         ("tid", Json.Int tid);
         ("ts", Json.Int ts);
       ]
      @ (match e.phase with
        | Instant -> [ ("s", Json.String "t") ]
        | Begin | End -> [])
      @
      match e.args with
      | [] -> []
      | args ->
          [
            ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) args));
          ])
  in
  Json.to_channel oc
    (Json.Obj
       [
         ("traceEvents", Json.List (List.map row rows));
         ("displayTimeUnit", Json.String "ms");
       ]);
  output_char oc '\n'

(* The trace ring on one thread; timestamps are logical, the position
   of the event in the merged stream. *)
let write_chrome_trace oc =
  write_trace oc (List.mapi (fun i e -> (0, i, e)) (events_snapshot ()))
