(* The multi-core machine: N in-order cores interleaved over shared
   L2/L3/POLB/VALB/VATB state by a seeded deterministic scheduler.

   Concurrency model.  Each core's instruction stream runs as an
   effect-based fiber; the core's [on_step] hook performs {!Yield} once
   per narrated µ-event, handing control back to the scheduler, which
   picks the next core with a seeded xorshift generator.  Everything
   runs on one OCaml domain — this is *simulated* concurrency with a
   reproducible interleaving, so `--jobs N == --jobs 1` determinism
   holds end to end: the schedule is a pure function of (seed, per-core
   programs).

   Coherence.  Stores broadcast through the core's [on_store] hook:
   every *other* core's private L1 drops the written line (shared L2/L3
   need no action).  The invalidation count is the machine's contention
   signal.

   Atomicity is per core: [Cpu.atomically] switches one core's
   [on_step] hook off for the length of an atomic read-modify-write, so
   that core runs the block without yielding.  The machine keeps no
   ambient state — everything it reads is [t] — so share-nothing worker
   domains (the exec pool) can each drive their own machine. *)

type _ Effect.t += Yield : unit Effect.t

exception Aborted
(* Raised into paused fibers when another fiber's exception (e.g. an
   injected crash) aborts the run, so their stacks unwind and no
   one-shot continuation leaks. *)

type stats = {
  steps : int;  (* scheduling decisions taken *)
  contended_steps : int;  (* decisions with >= 2 runnable cores *)
  switches : int;  (* decisions that moved to a different core *)
  invalidations : int;  (* coherence line invalidations *)
}

type t = {
  cores : Cpu.t array;
  seed : int;
  mutable rng : int64;
  mutable active : bool; (* inside [run]: hooks perform Yield *)
  mutable steps : int;
  mutable contended_steps : int;
  mutable switches : int;
  mutable invalidations : int;
}

let create ?(seed = 1) cores =
  if Array.length cores = 0 then invalid_arg "Multicore.create: no cores";
  {
    cores;
    seed;
    rng = 0L;
    active = false;
    steps = 0;
    contended_steps = 0;
    switches = 0;
    invalidations = 0;
  }

let cores t = t.cores

let stats t =
  {
    steps = t.steps;
    contended_steps = t.contended_steps;
    switches = t.switches;
    invalidations = t.invalidations;
  }

(* xorshift64: deterministic, allocation-free modulo boxing, never 0. *)
let next_rand t =
  let x = t.rng in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  t.rng <- x;
  Int64.to_int (Int64.logand x 0x3FFFFFFF_FFFFFFFFL)

type fiber_state =
  | Unstarted
  | Paused of (unit, unit) Effect.Deep.continuation
  | Running
  | Done

let run t fns =
  let n = Array.length t.cores in
  if Array.length fns <> n then
    invalid_arg "Multicore.run: one entry function per core";
  if n = 1 then fns.(0) 0 (* single core: pass-through, no hooks at all *)
  else begin
    if t.active then invalid_arg "Multicore.run: machine already running";
    t.rng <- Int64.of_int ((t.seed * 2) + 1);
    let state = Array.make n Unstarted in
    let cur = ref (-1) in
    (* One handler per fiber start; [effc] stores the paused
       continuation and returns to the scheduler loop. *)
    let handler i =
      Effect.Deep.
        {
          retc = (fun () -> state.(i) <- Done);
          exnc = raise;
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Yield ->
                  Some
                    (fun (k : (a, unit) Effect.Deep.continuation) ->
                      state.(i) <- Paused k)
              | _ -> None);
        }
    in
    (* Hooks: yield before each µ-event; broadcast each store to the
       other cores' private L1s. *)
    let on_step () = if t.active then Effect.perform Yield in
    for i = 0 to n - 1 do
      let on_store pa =
        if t.active then
          for j = 0 to n - 1 do
            if j <> i && Cpu.invalidate_line t.cores.(j) pa then
              t.invalidations <- t.invalidations + 1
          done
      in
      Cpu.set_hooks t.cores.(i) ~on_step ~on_store
    done;
    t.active <- true;
    let cleanup () =
      t.active <- false;
      Array.iter (fun c -> Cpu.clear_hooks c) t.cores;
      (* Unwind any still-paused fibers so their one-shot continuations
         are not leaked when an exception aborts the schedule. *)
      Array.iteri
        (fun i s ->
          match s with
          | Paused k -> (
              state.(i) <- Done;
              try Effect.Deep.discontinue k Aborted with _ -> ())
          | _ -> ())
        state
    in
    Fun.protect ~finally:cleanup @@ fun () ->
    let runnable = Array.make n 0 in
    let continue_ = ref true in
    while !continue_ do
      let count = ref 0 in
      for i = 0 to n - 1 do
        match state.(i) with
        | Unstarted | Paused _ ->
            runnable.(!count) <- i;
            incr count
        | Running | Done -> ()
      done;
      if !count = 0 then continue_ := false
      else begin
        t.steps <- t.steps + 1;
        if !count > 1 then t.contended_steps <- t.contended_steps + 1;
        let r = runnable.(next_rand t mod !count) in
        if !cur >= 0 && r <> !cur then t.switches <- t.switches + 1;
        cur := r;
        match state.(r) with
        | Unstarted ->
            state.(r) <- Running;
            Effect.Deep.match_with (fun () -> fns.(r) r) () (handler r)
        | Paused k ->
            state.(r) <- Running;
            Effect.Deep.continue k ()
        | Running | Done -> assert false
      end
    done
  end
