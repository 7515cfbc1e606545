(* Static program sites.  Every pointer-operation call site in library
   or application code is described by a [Site.t]: a stable synthetic PC
   (used to index the branch predictor, like the address of the check
   code the compiler would emit there) and a [static] flag that records
   whether the compiler's pointer-property inference resolved the
   operand's format at compile time.

   [static = true]  — inference succeeded (e.g. the value flows straight
                      from an allocator call or is a stack local): the
                      SW version emits no dynamic check here.
   [static = false] — the default for library code reached through
                      opaque function parameters: the SW version checks
                      dynamically (the ~42 % of sites of Section VII). *)

module Telemetry = Nvml_telemetry.Telemetry

type t = {
  pc : int;
  name : string;
  static : bool;
  check_counter : Telemetry.counter;
      (* dynamic checks executed at this site — registered eagerly so
         the per-site profile covers never-hit sites with a zero row *)
}

let counter = ref 0
let registry : t list ref = ref []

(* Library sites are registered at module-initialization time, but the
   mini-C interpreter mints sites while running — guard the registry so
   interpreter cells can run on worker domains. *)
let registry_lock = Mutex.create ()

let make_locked ~static name =
  let check_counter = Telemetry.counter ("site." ^ name) in
  incr counter;
  let t = { pc = !counter * 64; name; static; check_counter } in
  registry := t :: !registry;
  t

let make ?(static = false) name =
  Mutex.lock registry_lock;
  let t = make_locked ~static name in
  Mutex.unlock registry_lock;
  t

(* Sites minted while running (the mini-C interpreter) must be interned:
   a site describes a place in the *program text*, so re-running the
   same program must reuse the same synthetic PC.  Minting fresh PCs per
   run made the branch predictor's aliasing — and hence cycle counts —
   depend on how many interpreter runs preceded this one in the process. *)
let interned : (string * bool, t) Hashtbl.t = Hashtbl.create 256

let intern ?(static = false) name =
  Mutex.lock registry_lock;
  let t =
    match Hashtbl.find_opt interned (name, static) with
    | Some t -> t
    | None ->
        let t = make_locked ~static name in
        Hashtbl.replace interned (name, static) t;
        t
  in
  Mutex.unlock registry_lock;
  t

(* Sites registered so far under a name prefix (the per-structure
   check profile, and the productivity analysis: each non-static site
   is a place an explicit-API migration would have to edit by hand). *)
let with_prefix prefix =
  List.filter (fun t -> String.starts_with ~prefix t.name) (List.rev !registry)

let pc t = t.pc
let name t = t.name
let is_static t = t.static
let check_counter t = t.check_counter
let checks t = Telemetry.value t.check_counter
