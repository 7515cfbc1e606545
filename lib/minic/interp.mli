(** The mini-C interpreter.  Programs execute against the runtime's
    pointer API, so one source runs in every mode: Volatile gives the
    reference behaviour; Sw/Hw give user-transparent persistent
    references with their cost models.  Locals live in a simulated DRAM
    stack; the heap region is a parameter (DRAM for native runs, a pool
    for the libvmmalloc-style persist-everything runs of Sec. VII-B).

    A check [plan] from the compiler pass marks expression nodes whose
    pointer properties were statically resolved; those sites are created
    static and the SW mode emits no dynamic check there. *)

module Runtime = Nvml_runtime.Runtime

exception Runtime_error of string

type outcome = { result : int64; output : int64 list }

val run :
  Runtime.t ->
  ?plan:(int -> bool) ->
  heap:Runtime.region ->
  Ast.program ->
  args:int64 list ->
  outcome
(** Execute [main].  [plan id] answers "statically resolved?" per
    expression node id (defaults to all-dynamic).
    @raise Runtime_error on dynamic errors (unbound names, division by
    zero, stack overflow, calls to unknown functions). *)

val heap_for : name:string -> Runtime.t -> persistent:bool -> Runtime.region
(** Where a program's heap lives: a fresh 4 MiB pool [name] when
    [persistent], and DRAM otherwise or in the [Volatile] version (the
    one rule of {!run_fresh} and of each core under [nvml run
    --cores]). *)

val run_fresh :
  ?cfg:Runtime.Config.t ->
  ?persist:Nvml_runtime.Persist.model ->
  ?plan:(int -> bool) ->
  mode:Runtime.mode ->
  persistent:bool ->
  Ast.program ->
  Runtime.t * outcome
(** {!run} [main] with no arguments on a fresh machine
    ([Runtime.create ?cfg ?persist ~mode]), its heap
    [heap_for ~name:"heap"].  Returns the machine, for its counters. *)
