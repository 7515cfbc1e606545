(* The component registry and the fuzzing driver behind `nvml fuzz`. *)

module Registry = Nvml_structures.Registry
module Pool = Nvml_exec.Pool

type spec = {
  name : string;
  breakable : bool;
      (* has a quirk that re-enables a fixed bug for --break self-tests *)
  scale : int; (* op-cost divisor: heavy harnesses run ops/scale ops *)
  make : cfg:Nvml_arch.Config.t -> break:bool -> Engine.packed;
}

(* A component without a quirk whose harness boots no machine. *)
let plain ?(scale = 1) name harness =
  let make ~cfg:_ ~break:_ = harness () in
  { name; breakable = false; scale; make }

(* A component without a quirk whose harness boots a machine from [cfg]. *)
let booted ?(scale = 1) name harness =
  let make ~cfg ~break:_ = harness ~cfg in
  { name; breakable = false; scale; make }

(* A component with a quirk that [--break] enables. *)
let breakable ?(scale = 1) name harness =
  let make ~cfg:_ ~break = harness ~break in
  { name; breakable = true; scale; make }

let structure_spec (module M : Nvml_structures.Intf.ORDERED_MAP) =
  booted ~scale:4 ("structures:" ^ M.name) (fun ~cfg ->
      Harnesses.Structure_h.harness ~cfg (module M))

let specs () =
  [
    breakable "cache" (fun ~break ->
        Harnesses.Cache_h.harness ~sets:4 ~ways:3 ~break ());
    breakable "valb" (fun ~break -> Harnesses.Valb_h.harness ~break ());
    plain "storep" (Harnesses.Storep_h.harness ~entries:3);
    plain "persist" Harnesses.Persist_h.harness;
    plain "physmem" Harnesses.Physmem_h.harness;
    plain "vspace" Harnesses.Vspace_h.harness;
    plain "relwin" Harnesses.Relwin_h.harness;
    plain "vatb" Harnesses.Vatb_h.harness;
    plain "freelist" Harnesses.Freelist_h.harness;
    plain ~scale:2 "pmop" Harnesses.Pmop_h.harness;
    booted "txn" (fun ~cfg -> Harnesses.Txn_h.harness ~cfg ());
    breakable ~scale:4 "media" (fun ~break ->
        Harnesses.Media_h.harness ~break ());
  ]
  @ List.map structure_spec Registry.all_maps
  @ [
      booted ~scale:16 "semantics" (fun ~cfg ->
          Harnesses.Semantics_h.harness ~cfg ());
      plain "zipf" Harnesses.Zipf_h.harness;
      (* Schedule enumeration over seeded interleavings of the
         multi-core machine: every op is a complete contended episode,
         so the harness runs few of them. *)
      booted ~scale:64 "conc" (fun ~cfg -> Harnesses.Conc_h.harness ~cfg ());
      booted "fcache" (fun ~cfg ->
          Harnesses.Fcache_h.harness ~cfg ~capacity:7 ());
    ]

let names () = List.map (fun s -> s.name) (specs ())

exception Unknown_component of string

(* "structures" expands to every registered container; [] means all. *)
let select requested =
  let all = specs () in
  match requested with
  | [] -> all
  | req ->
      List.concat_map
        (fun name ->
          if name = "structures" then
            List.filter
              (fun s ->
                String.length s.name > 11
                && String.sub s.name 0 11 = "structures:")
              all
          else
            match List.find_opt (fun s -> s.name = name) all with
            | Some s -> [ s ]
            | None -> raise (Unknown_component name))
        req

type entry = { spec_name : string; breakable : bool; result : Engine.result }
type report = { entries : entry list; violations : int }

(* The fewest ops a heavy component runs (all of [ops] when fewer), so
   a short run still gives each one several inputs. *)
let min_ops = 16

let run ?pool ?(break = false) ?(timing = false) ~components ~ops ~seed () =
  (* Model checking only compares functional outputs, so the machines
     the harnesses boot default to fast functional simulation;
     [~timing:true] boots the cycle-accurate core (the results are
     identical either way). *)
  let cfg = { Nvml_arch.Config.default with timing } in
  let selected = select components in
  let tasks =
    List.map
      (fun s () ->
        let ops = max (min ops min_ops) (ops / s.scale) in
        let result = Engine.run (s.make ~cfg ~break) ~ops ~seed in
        { spec_name = s.name; breakable = s.breakable; result })
      selected
  in
  let entries =
    match pool with
    | Some p -> Pool.run p tasks
    | None -> List.map (fun t -> t ()) tasks
  in
  let violations =
    List.length
      (List.filter (fun e -> e.result.Engine.violation <> None) entries)
  in
  { entries; violations }

(* A --break run succeeds when the fuzzer finds every planted bug and
   nothing else: each quirk-capable component must report a violation,
   every other component must stay clean. *)
let break_run_ok report =
  List.for_all
    (fun e ->
      let violated = e.result.Engine.violation <> None in
      if e.breakable then violated else not violated)
    report.entries

let pp_report ppf report =
  List.iter
    (fun e -> Fmt.pf ppf "@[<v>%a@]@." Engine.pp_result e.result)
    report.entries;
  let n = List.length report.entries in
  if report.violations = 0 then
    Fmt.pf ppf "fuzz: %d component run%s, no violations@." n
      (if n = 1 then "" else "s")
  else
    Fmt.pf ppf "fuzz: %d component run%s, %d VIOLATION%s@." n
      (if n = 1 then "" else "s")
      report.violations
      (if report.violations = 1 then "" else "S")
