(* The model-based differential fuzzing engine: seeded op streams,
   step-by-step observational-equivalence checking against a reference
   model, and greedy counterexample shrinking.

   Everything is deterministic in (component, seed, ops): generation
   draws only from a seeded [Random.State] the applies never touch, so
   a reported seed replays bit-identically — including under a parallel
   runner, where each component run is share-nothing. *)

module Telemetry = Nvml_telemetry.Telemetry

exception Violation of string

type 'op harness = {
  component : string;
  gen : Random.State.t -> 'op;
  init : seed:int -> ('op -> unit);
  pp : 'op -> string;
}

type packed = Packed : 'op harness -> packed

type counterexample = {
  step : int;
  message : string;
  trace : string list;
  shrunk_from : int;
}

type result = {
  component : string;
  seed : int;
  ops : int;
  ops_run : int;
  violation : counterexample option;
}

(* fuzz.* telemetry: enough for check_stats to assert the fuzzer really
   ran, and for bench trend lines on violation counts. *)
let c_runs = Telemetry.counter "fuzz.runs"
let c_ops = Telemetry.counter "fuzz.ops"
let c_violations = Telemetry.counter "fuzz.violations"
let c_shrink_replays = Telemetry.counter "fuzz.shrink_replays"

let rng_of ~component ~seed =
  Random.State.make [| 0x6e766d6c; Hashtbl.hash component; seed |]

let message_of = function
  | Violation m -> m
  | e -> "unexpected exception: " ^ Printexc.to_string e

(* Replay [ops] on a fresh instance; the violation message if any. *)
let replay h ~seed ops =
  Telemetry.incr c_shrink_replays;
  let apply = h.init ~seed in
  let rec go = function
    | [] -> None
    | op :: rest -> (
        match apply op with
        | () -> go rest
        | exception e -> Some (message_of e))
  in
  go ops

(* Greedy delta-debugging: repeatedly try to drop chunk-sized windows,
   halving the chunk, under a bounded replay budget.  The result still
   fails (possibly with a different message — any violation counts). *)
let shrink h ~seed ops =
  let budget = ref 256 in
  let still_fails ops =
    !budget > 0
    && (decr budget;
        replay h ~seed ops <> None)
  in
  let rec pass ops chunk =
    if chunk < 1 then ops
    else begin
      let arr = Array.of_list ops in
      let n = Array.length arr in
      let keep = Array.make n true in
      let lo = ref 0 in
      while !lo < n do
        let hi = min n (!lo + chunk) in
        let saved = Array.sub keep !lo (hi - !lo) in
        Array.fill keep !lo (hi - !lo) false;
        let candidate =
          List.filteri (fun i _ -> keep.(i)) (Array.to_list arr)
        in
        if candidate = [] || not (still_fails candidate) then
          Array.blit saved 0 keep !lo (hi - !lo);
        lo := hi
      done;
      let kept = List.filteri (fun i _ -> keep.(i)) ops in
      pass kept (min chunk (List.length kept) / 2)
    end
  in
  let ops = pass ops (max 1 (List.length ops / 2)) in
  (* Final polish: drop single ops. *)
  if List.length ops > 1 then pass ops 1 else ops

let run (Packed h) ~ops ~seed =
  Telemetry.incr c_runs;
  let rng = rng_of ~component:h.component ~seed in
  let apply = h.init ~seed in
  let trace = ref [] in
  let violation = ref None in
  let step = ref 0 in
  while !violation = None && !step < ops do
    let op = h.gen rng in
    trace := op :: !trace;
    (match apply op with
    | () -> ()
    | exception e -> violation := Some (message_of e));
    incr step
  done;
  Telemetry.add c_ops !step;
  let violation =
    match !violation with
    | None -> None
    | Some message ->
        Telemetry.incr c_violations;
        let prefix = List.rev !trace in
        let shrunk = shrink h ~seed prefix in
        Some
          {
            step = !step - 1;
            message;
            trace = List.map h.pp shrunk;
            shrunk_from = List.length prefix;
          }
  in
  { component = h.component; seed; ops; ops_run = !step; violation }

let pp_result ppf r =
  match r.violation with
  | None ->
      Fmt.pf ppf "%-16s seed %-6d %6d ops    ok" r.component r.seed r.ops_run
  | Some v ->
      Fmt.pf ppf "%-16s seed %-6d %6d ops    VIOLATION at step %d@,  %s@,"
        r.component r.seed r.ops_run v.step v.message;
      Fmt.pf ppf "  counterexample (%d ops, shrunk from %d):"
        (List.length v.trace) v.shrunk_from;
      List.iteri (fun i op -> Fmt.pf ppf "@,    %2d. %s" (i + 1) op) v.trace
