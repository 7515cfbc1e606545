(* A fixed-size domain worker pool for running independent simulation
   cells in parallel.

   A *cell* is a self-contained simulation: it builds its own
   [Runtime.t] machine (memory, caches, translation hardware, RNG state
   seeded from the workload spec), runs, and returns a result value.
   Cells share nothing, so running them on worker domains is
   deterministic: [run] returns results in submission order, and the
   values are bit-identical to a sequential execution regardless of the
   number of workers or the interleaving the scheduler picks.

   With [jobs = 1] no domains are spawned at all and [run] executes the
   tasks inline in the calling domain, preserving the exact sequential
   behaviour (including any output ordering of the tasks themselves).

   Telemetry: when recording is enabled, every task runs in a fresh
   telemetry sink, and [run] merges the task sinks into the caller's
   current sink in submission order after all tasks finish.  Counters
   and latency cells commute, and each task's bounded event ring keeps its
   own last-capacity suffix, so the merged stream is exactly what an
   inline [jobs = 1] execution would have accumulated — [--jobs N]
   telemetry is bit-identical to [--jobs 1]. *)

module Telemetry = Nvml_telemetry.Telemetry

type task = unit -> unit

type t = {
  jobs : int;
  mutable workers : unit Domain.t array; (* empty when [jobs = 1] *)
  queue : task Queue.t;
  lock : Mutex.t;
  work_available : Condition.t;
  mutable live : bool;
}

(* Worker body: drain the queue until shutdown. *)
let rec worker_loop t =
  Mutex.lock t.lock;
  let rec next () =
    if not t.live then None
    else
      match Queue.take_opt t.queue with
      | Some task -> Some task
      | None ->
          Condition.wait t.work_available t.lock;
          next ()
  in
  let task = next () in
  Mutex.unlock t.lock;
  match task with
  | None -> ()
  | Some task ->
      task ();
      worker_loop t

let default_jobs () = Domain.recommended_domain_count ()

let create ?jobs () =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let t =
    {
      jobs;
      workers = [||];
      queue = Queue.create ();
      lock = Mutex.create ();
      work_available = Condition.create ();
      live = true;
    }
  in
  if jobs > 1 then
    t.workers <- Array.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let jobs t = t.jobs

(* Run every task, returning results in submission order.  If any task
   raised, the exception of the earliest-submitted failed task is
   re-raised (with its backtrace) after all tasks have finished — a
   deterministic choice independent of scheduling. *)
let run (type a) t (fs : (unit -> a) list) : a list =
  if not t.live then invalid_arg "Pool.run: pool is shut down";
  match fs with
  | [] -> []
  | fs when t.jobs = 1 || List.length fs = 1 -> List.map (fun f -> f ()) fs
  | fs ->
      let n = List.length fs in
      let results : (a, exn * Printexc.raw_backtrace) result option array =
        Array.make n None
      in
      (* Per-task telemetry sinks, merged below in submission order. *)
      let sinks =
        if Telemetry.enabled () then
          Some (Array.init n (fun _ -> Telemetry.fresh_sink ()))
        else None
      in
      let remaining = ref n in
      let all_done = Condition.create () in
      List.iteri
        (fun i f ->
          let task () =
            let body () =
              try Ok (f ())
              with e -> Error (e, Printexc.get_raw_backtrace ())
            in
            let r =
              match sinks with
              | Some sinks -> Telemetry.run_with_sink sinks.(i) body
              | None -> body ()
            in
            Mutex.lock t.lock;
            results.(i) <- Some r;
            decr remaining;
            if !remaining = 0 then Condition.signal all_done;
            Mutex.unlock t.lock
          in
          Mutex.lock t.lock;
          Queue.add task t.queue;
          Condition.signal t.work_available;
          Mutex.unlock t.lock)
        fs;
      Mutex.lock t.lock;
      while !remaining > 0 do
        Condition.wait all_done t.lock
      done;
      Mutex.unlock t.lock;
      (match sinks with
      | Some sinks ->
          let dst = Telemetry.current_sink () in
          Array.iter (fun s -> Telemetry.merge_into ~dst s) sinks
      | None -> ());
      Array.to_list results
      |> List.map (function
           | Some (Ok v) -> v
           | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
           | None -> assert false)

(* Map over a list through the pool. *)
let map t f xs = run t (List.map (fun x () -> f x) xs)

let shutdown t =
  if t.live then begin
    Mutex.lock t.lock;
    t.live <- false;
    Condition.broadcast t.work_available;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.workers
  end
