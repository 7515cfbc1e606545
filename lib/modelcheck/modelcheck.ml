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

let structure_spec (module M : Nvml_structures.Intf.ORDERED_MAP) =
  {
    name = "structures:" ^ M.name;
    breakable = false;
    scale = 4;
    make =
      (fun ~cfg ~break:_ -> Harnesses.Structure_h.harness ~cfg (module M));
  }

let specs () =
  [
    {
      name = "cache";
      breakable = true;
      scale = 1;
      make = (fun ~cfg:_ ~break -> Harnesses.Cache_h.harness ~break ());
    };
    {
      name = "valb";
      breakable = true;
      scale = 1;
      make = (fun ~cfg:_ ~break -> Harnesses.Valb_h.harness ~break ());
    };
    {
      name = "storep";
      breakable = false;
      scale = 1;
      make = (fun ~cfg:_ ~break:_ -> Harnesses.Storep_h.harness ());
    };
    {
      name = "persist";
      breakable = false;
      scale = 1;
      make = (fun ~cfg:_ ~break:_ -> Harnesses.Persist_h.harness ());
    };
    {
      name = "vatb";
      breakable = false;
      scale = 1;
      make = (fun ~cfg:_ ~break:_ -> Harnesses.Vatb_h.harness ());
    };
    {
      name = "freelist";
      breakable = false;
      scale = 1;
      make = (fun ~cfg:_ ~break:_ -> Harnesses.Freelist_h.harness ());
    };
    {
      name = "pmop";
      breakable = false;
      scale = 2;
      make = (fun ~cfg:_ ~break:_ -> Harnesses.Pmop_h.harness ());
    };
    {
      name = "media";
      breakable = true;
      scale = 4;
      make = (fun ~cfg:_ ~break -> Harnesses.Media_h.harness ~break ());
    };
  ]
  @ List.map structure_spec Registry.all_maps
  @ [
      {
        name = "semantics";
        breakable = false;
        scale = 16;
        make = (fun ~cfg ~break:_ -> Harnesses.Semantics_h.harness ~cfg ());
      };
      {
        name = "zipf";
        breakable = false;
        scale = 1;
        make = (fun ~cfg:_ ~break:_ -> Harnesses.Zipf_h.harness ());
      };
      {
        (* Schedule enumeration over seeded interleavings of the
           multi-core machine: every op is a complete contended
           episode, so the harness runs few of them. *)
        name = "conc";
        breakable = false;
        scale = 64;
        make = (fun ~cfg ~break:_ -> Harnesses.Conc_h.harness ~cfg ());
      };
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
        let ops = max 1 (ops / s.scale) in
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
