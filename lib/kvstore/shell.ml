(* An interactive persistent key-value store: the "aha" demo of the
   whole stack.  A session owns a simulated machine with one pool and an
   index structure anchored at the pool root; commands mutate it, and
   `crash` power-cycles the machine — everything committed to the pool
   survives, relocated to a fresh mapping.

   Commands (one per line):
     put <key> <value>      insert or update (integers)
     get <key>              look up
     del <key>              remove
     size                   number of keys
     keys                   list keys in order
     crash                  power-cycle; recover from the pool root
     crash torn             power-cycle with the last persistent store torn
     stats                  timing-model counters so far
     help                   this list

   The command interpreter is a plain function over strings so tests can
   drive a session without a terminal. *)

module Mem = Nvml_simmem.Mem
module Physmem = Nvml_simmem.Physmem
module Fi = Nvml_simmem.Fi
module Cpu = Nvml_arch.Cpu
module Runtime = Nvml_runtime.Runtime
module Site = Nvml_runtime.Site
module Intf = Nvml_structures.Intf

let site = Site.make ~static:true "shell"

type t = {
  rt : Runtime.t;
  pool : int;
  structure : Intf.ordered_map;
  mutable map_header : Nvml_core.Ptr.t;
  mutable crashes : int;
  (* Torn-crash support: every byte mask comes from this seeded state,
     so a scripted session replays bit-identically; the fi hook keeps
     the most recent NVM store (it survives power cycles, so `crash
     torn` works after recovery too). *)
  rng : Random.State.t;
  mutable last_store : (int * int * int64 * int64) option;
      (* frame, word, old, new *)
}

let pool_size = 1 lsl 22

let create ?(mode = Runtime.Hw) ?(structure = "RB") ?(seed = 0) () =
  if mode = Runtime.Volatile then
    invalid_arg "Shell.create: the Volatile mode has no pool for the map";
  let rt = Runtime.create ~mode () in
  let pool = Runtime.create_pool rt ~name:"shell" ~size:pool_size in
  let structure = Nvml_structures.Registry.find_map structure in
  let module M = (val structure : Intf.ORDERED_MAP) in
  let m = M.create rt (Runtime.Pool_region pool) in
  Runtime.set_root rt ~site ~pool (M.header m);
  let t =
    {
      rt;
      pool;
      structure;
      map_header = M.header m;
      crashes = 0;
      rng = Random.State.make [| 0x7e11; seed |];
      last_store = None;
    }
  in
  Physmem.set_fi_hook
    (Mem.phys (Runtime.mem rt))
    (Some
       (function
         | Fi.Pm_store { frame; word_index; old_value; new_value } ->
             t.last_store <- Some (frame, word_index, old_value, new_value)
         | _ -> ()));
  t

(* Monomorphic operation record over the existentially typed map. *)
type ops = {
  insert : key:int64 -> value:int64 -> unit;
  find : int64 -> int64 option;
  remove : int64 -> bool;
  size : unit -> int;
  iter : (key:int64 -> value:int64 -> unit) -> unit;
  check : unit -> unit;
}

let ops t : ops =
  let module M = (val t.structure : Intf.ORDERED_MAP) in
  let m = M.attach t.rt t.map_header in
  {
    insert = (fun ~key ~value -> M.insert m ~key ~value);
    find = (fun k -> M.find m k);
    remove = (fun k -> M.remove m k);
    size = (fun () -> M.size m);
    iter = (fun f -> M.iter m f);
    check = (fun () -> M.check_invariants m);
  }

(* One command in, list of reply lines out. *)
let exec t (line : string) : string list =
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun w -> w <> "")
  in
  let int_arg s =
    match Int64.of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Fmt.str "not an integer: %S" s)
  in
  match words with
  | [] -> []
  | [ "help" ] ->
      [
        "put <key> <value>   insert or update";
        "get <key>           look up";
        "del <key>           remove";
        "size                number of keys";
        "keys                list keys in order";
        "crash               power-cycle the machine";
        "crash torn          power-cycle, tearing the last persistent store";
        "stats               timing-model counters";
        "quit                leave";
      ]
  | [ "put"; k; v ] -> (
      match (int_arg k, int_arg v) with
      | Ok key, Ok value ->
          (ops t).insert ~key ~value;
          [ "ok" ]
      | Error e, _ | _, Error e -> [ "error: " ^ e ])
  | [ "get"; k ] -> (
      match int_arg k with
      | Ok key -> (
          match (ops t).find key with
          | Some v -> [ Int64.to_string v ]
          | None -> [ "(not found)" ])
      | Error e -> [ "error: " ^ e ])
  | [ "del"; k ] -> (
      match int_arg k with
      | Ok key -> if (ops t).remove key then [ "ok" ] else [ "(not found)" ]
      | Error e -> [ "error: " ^ e ])
  | [ "size" ] -> [ string_of_int ((ops t).size ()) ]
  | [ "keys" ] -> (
      let acc = ref [] in
      (ops t).iter (fun ~key ~value:_ -> acc := Int64.to_string key :: !acc);
      match List.rev !acc with [] -> [ "(empty)" ] | keys -> keys)
  | [ "crash" ] ->
      t.crashes <- t.crashes + 1;
      Runtime.crash_and_restart t.rt;
      ignore (Runtime.open_pool t.rt "shell");
      t.map_header <- Runtime.get_root t.rt ~site ~pool:t.pool;
      let o = ops t in
      o.check ();
      [
        Fmt.str "crashed and recovered (%d keys intact, crash #%d)"
          (o.size ()) t.crashes;
      ]
  | [ "crash"; "torn" ] -> (
      (* Adversarial power-cycle: the most recent persistent store is
         replaced by a seeded byte-mix of its old and new value before
         the machine goes down — the word the power failure caught
         mid-flight.  The shell's puts are not transactional, so a torn
         structure word is *expected* to be caught by the recovery
         check (that is the demo: without an undo log, sub-word tearing
         is fatal; `bench faultinject` shows the log healing it). *)
      match t.last_store with
      | None -> [ "nothing stored to the pool yet; nothing to tear" ]
      | Some (frame, word_index, old_value, new_value) ->
          let keep_old_bytes = 1 + Random.State.int t.rng 254 in
          Physmem.poke
            (Mem.phys (Runtime.mem t.rt))
            ~frame ~word_index
            (Fi.torn_word ~keep_old_bytes ~old_value ~new_value);
          t.crashes <- t.crashes + 1;
          t.last_store <- None;
          Runtime.crash_and_restart t.rt;
          ignore (Runtime.open_pool t.rt "shell");
          t.map_header <- Runtime.get_root t.rt ~site ~pool:t.pool;
          match
            let o = ops t in
            o.check ();
            o.size ()
          with
          | n ->
              [
                Fmt.str
                  "crashed with a torn store; recovered (%d keys intact, \
                   crash #%d)"
                  n t.crashes;
              ]
          | exception e ->
              [
                Fmt.str "crashed with a torn store; recovery check failed \
                         (crash #%d):"
                  t.crashes;
                "  " ^ Printexc.to_string e;
              ])
  | [ "stats" ] ->
      let s = Runtime.snapshot t.rt in
      [
        Fmt.str "cycles       %d" s.Cpu.cycles;
        Fmt.str "instructions %d" s.Cpu.instrs;
        Fmt.str "accesses     %d (%d NVM, %d storeP)" s.Cpu.mem_accesses
          s.Cpu.nvm_accesses s.Cpu.storeps;
        Fmt.str "POLB         %d accesses, %d misses" s.Cpu.polb_accesses
          s.Cpu.polb_misses;
        Fmt.str "crashes      %d" t.crashes;
      ]
  | cmd :: _ -> [ Fmt.str "unknown command %S (try help)" cmd ]
