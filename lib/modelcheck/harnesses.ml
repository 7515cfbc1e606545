(* One harness per simulated component: the real implementation and a
   small, obviously-correct reference model executed side by side on a
   seeded random op stream, with observational equivalence and
   structural invariants checked after every op.

   The models deliberately use the dumbest data representation that can
   express the spec (MRU-first lists, sorted block lists, Stdlib maps):
   they are the executable form of the prose in the corresponding .mli,
   and any divergence — either direction — is a finding. *)

module Cache = Nvml_arch.Cache
module Valb = Nvml_arch.Valb
module Storep = Nvml_arch.Storep_unit
module Btree = Nvml_arch.Range_btree
module Freelist = Nvml_pool.Freelist
module Pmop = Nvml_pool.Pmop
module Scrub = Nvml_pool.Scrub
module Media = Nvml_media.Media
module Mem = Nvml_simmem.Mem
module Ptr = Nvml_core.Ptr
module Runtime = Nvml_runtime.Runtime
module Site = Nvml_runtime.Site
module Registry = Nvml_structures.Registry
module Intf = Nvml_structures.Intf
module Distribution = Nvml_ycsb.Distribution
module Corpus = Nvml_minic.Corpus
module Interp = Nvml_minic.Interp
module Inference = Nvml_comp.Inference
module Telemetry = Nvml_telemetry.Telemetry

let fail fmt = Fmt.kstr (fun m -> raise (Engine.Violation m)) fmt
let site = Site.make ~static:true "fuzz"

(* --- POLB / set-associative cache ---------------------------------------- *)

(* Model: per set, the resident blocks most-recently-used first.  The
   fuzzer runs a 4 x 3 cache; a non-power-of-two set count exercises
   the modulo indexing of the L2 TLB's 384 sets. *)
module Cache_h = struct
  type op = Access of int | Probe of int | Invalidate of int | Flush

  let shift = 4

  let pp = function
    | Access a -> Fmt.str "access 0x%x" a
    | Probe a -> Fmt.str "probe 0x%x" a
    | Invalidate a -> Fmt.str "invalidate 0x%x" a
    | Flush -> "flush"

  (* Addresses span twice the cache's lines, so full sets evict. *)
  let gen ~lines rng =
    let addr () = Random.State.int rng ((2 * lines) lsl shift) in
    match Random.State.int rng 100 with
    | n when n < 70 -> Access (addr ())
    | n when n < 85 -> Probe (addr ())
    | n when n < 97 -> Invalidate (addr ())
    | _ -> Flush

  let check_state c model =
    Array.iteri
      (fun s blocks ->
        let by_recency = Cache.ways_of_set c s in
        if by_recency <> blocks then
          fail "cache set %d: LRU order %a, model %a" s
            Fmt.(Dump.list int) by_recency
            Fmt.(Dump.list int) blocks)
      model

  let harness ~sets ~ways ~break () =
    Engine.Packed
      {
        Engine.component = "cache";
        gen = gen ~lines:(sets * ways);
        pp;
        init =
          (fun ~seed:_ ->
            let c = Cache.create ~sets ~ways ~index_shift:shift in
            if break then Cache.enable_quirk c Cache.Stale_invalidate_stamp;
            let model = Array.make sets [] in
            fun op ->
              (match op with
              | Access a ->
                  let block = a lsr shift in
                  let s = block mod sets in
                  let hit = List.mem block model.(s) in
                  let rest = List.filter (( <> ) block) model.(s) in
                  model.(s) <-
                    block
                    :: (if (not hit) && List.length rest = ways then
                          List.filteri (fun i _ -> i < ways - 1) rest
                        else rest);
                  let sut = Cache.access c a in
                  if sut <> hit then
                    fail "access 0x%x: cache says %b, model says %b" a sut hit
              | Probe a ->
                  let block = a lsr shift in
                  let hit = List.mem block model.(block mod sets) in
                  let sut = Cache.probe c a in
                  if sut <> hit then
                    fail "probe 0x%x: cache says %b, model says %b" a sut hit
              | Invalidate a ->
                  let block = a lsr shift in
                  let s = block mod sets in
                  model.(s) <- List.filter (( <> ) block) model.(s);
                  Cache.invalidate c a
              | Flush ->
                  Array.fill model 0 sets [];
                  Cache.flush c);
              check_state c model);
      }
end

(* --- VALB range CAM ------------------------------------------------------- *)

(* Model: the resident (base, size, pool) entries most-recently-used
   first, at most one entry per pool.  Pools live at disjoint ranges,
   with a second "relocated" range per pool to exercise remap dedup. *)
module Valb_h = struct
  type op =
    | Lookup of int * int * int (* pool, version, delta *)
    | Insert of int * int (* pool, version *)
    | Invalidate_pool of int
    | Flush

  let entries = 4
  let npools = 6
  let size = 0x1000L

  let base pool version =
    Int64.of_int (0x10000 + (pool * 0x4000) + (version * 0x2000))

  let pp = function
    | Lookup (p, v, d) -> Fmt.str "lookup pool=%d v=%d +0x%x" p v d
    | Insert (p, v) -> Fmt.str "insert pool=%d v=%d" p v
    | Invalidate_pool p -> Fmt.str "invalidate-pool %d" p
    | Flush -> "flush"

  let gen rng =
    let pool () = Random.State.int rng npools in
    match Random.State.int rng 100 with
    | n when n < 45 ->
        Lookup (pool (), Random.State.int rng 2, Random.State.int rng 0x2000)
    | n when n < 85 -> Insert (pool (), Random.State.int rng 2)
    | n when n < 96 -> Invalidate_pool (pool ())
    | _ -> Flush

  let check_state v model =
    let dump = Valb.dump v in
    let pools = List.map (fun (_, _, p) -> p) dump in
    if List.length pools <> List.length (List.sort_uniq compare pools) then
      fail "valb holds duplicate ways for one pool: %a"
        Fmt.(Dump.list int) pools;
    if dump <> !model then
      let pp =
        Fmt.(Dump.list (fun ppf (b, s, p) -> pf ppf "(0x%Lx, %Ld, %d)" b s p))
      in
      fail "valb state %a, model %a" pp dump pp !model

  let harness ~break () =
    Engine.Packed
      {
        Engine.component = "valb";
        gen;
        pp;
        init =
          (fun ~seed:_ ->
            let v = Valb.create ~entries in
            if break then begin
              Valb.enable_quirk v Valb.Duplicate_insert;
              Valb.enable_quirk v Valb.Stale_invalidate_stamp
            end;
            let model = ref [] in
            fun op ->
              (match op with
              | Lookup (p, ver, delta) ->
                  let va = Int64.add (base p ver) (Int64.of_int delta) in
                  let expected =
                    List.find_opt
                      (fun (b, s, _) -> va >= b && va < Int64.add b s)
                      !model
                  in
                  (match expected with
                  | Some ((_, _, p') as e) ->
                      model := e :: List.filter (( <> ) e) !model;
                      let sut = Valb.lookup v va in
                      if sut <> Some p' then
                        fail "lookup 0x%Lx: valb says %a, model says pool %d"
                          va
                          Fmt.(Dump.option int)
                          sut p'
                  | None ->
                      let sut = Valb.lookup v va in
                      if sut <> None then
                        fail "lookup 0x%Lx: valb says %a, model says miss" va
                          Fmt.(Dump.option int)
                          sut)
              | Insert (p, ver) ->
                  let b = base p ver in
                  Valb.insert v ~base:b ~size ~pool:p;
                  let rest =
                    List.filter (fun (_, _, p') -> p' <> p) !model
                  in
                  model :=
                    (b, size, p)
                    :: (if List.length rest = entries then
                          List.filteri (fun i _ -> i < entries - 1) rest
                        else rest)
              | Invalidate_pool p ->
                  Valb.invalidate_pool v p;
                  model := List.filter (fun (_, _, p') -> p' <> p) !model
              | Flush ->
                  Valb.flush v;
                  model := []);
              check_state v model);
      }
end

(* --- storeP unit ---------------------------------------------------------- *)

(* Model: the multiset of per-entry completion cycles; an issue takes
   the earliest-free entry, stalling until it drains if all are busy.
   Issues come 0-3 cycles apart, 1.5 on average, with latencies of 1 to
   4 x [entries] + 3 cycles, so about 1.3 x [entries] + 1.3 are in
   flight: the unit fills. *)
module Storep_h = struct
  type op = Issue of int * int (* time advance, unit latency *)

  let pp (Issue (dt, lat)) = Fmt.str "issue dt=%d latency=%d" dt lat

  let gen ~entries rng =
    Issue (Random.State.int rng 4, 1 + Random.State.int rng ((4 * entries) + 3))

  let harness ~entries () =
    Engine.Packed
      {
        Engine.component = "storep";
        gen = gen ~entries;
        pp;
        init =
          (fun ~seed:_ ->
            let u = Storep.create ~entries in
            let busy = ref (List.init entries (fun _ -> 0)) in
            let now = ref 0 in
            let issued = ref 0 in
            let stalls = ref 0 in
            let peak = ref 0 in
            fun (Issue (dt, latency)) ->
              now := !now + dt;
              let occupancy =
                List.length (List.filter (fun b -> b > !now) !busy)
              in
              if occupancy > !peak then peak := occupancy;
              let earliest = List.fold_left min max_int !busy in
              let start = max !now earliest in
              let stall = start - !now in
              let rec replace = function
                | [] -> assert false
                | b :: rest when b = earliest -> (start + latency) :: rest
                | b :: rest -> b :: replace rest
              in
              busy := replace !busy;
              incr issued;
              stalls := !stalls + stall;
              let sut = Storep.issue u ~now:!now ~latency in
              if sut <> stall then
                fail "issue at t=%d latency %d: unit stalls %d, model %d"
                  !now latency sut stall;
              if Storep.issued u <> !issued then
                fail "issued count %d, model %d" (Storep.issued u) !issued;
              if Storep.stall_cycles u <> !stalls then
                fail "stall cycles %d, model %d" (Storep.stall_cycles u)
                  !stalls;
              if Storep.peak_occupancy u <> !peak then
                fail "peak occupancy %d, model %d" (Storep.peak_occupancy u)
                  !peak);
      }
end

(* --- persist buffer ------------------------------------------------------ *)

(* Model: a word-keyed map — packed word address [frame *
   words_per_page + word_index] -> durable value, drained by sorting the
   distinct [key lsr 3] line ids — plus the newest value of every word
   stored.  The engine runs on a bare Physmem: three NVM
   frames, six lines each, so stores collide within lines and lines are
   dirtied in every order.  A cycle-mode core checks the drain stalls. *)
module Persist_h = struct
  module Persist = Nvml_runtime.Persist
  module Physmem = Nvml_simmem.Physmem
  module Fi = Nvml_simmem.Fi
  module Layout = Nvml_simmem.Layout
  module Cpu = Nvml_arch.Cpu
  module Config = Nvml_arch.Config

  type op =
    | Store of int * int64 (* word slot, value *)
    | Store_through of int * int64 (* under [with_eager] *)
    | Drain of int option (* power cut at the k-th Flush_line *)
    | Crash
    | Durable of int
    | Line of int (* line slot *)

  let frames = 3
  let lines = [| 0; 1; 2; 7; 32; 63 |] (* line indices used in a frame *)
  let line_slots = frames * Array.length lines
  let word_slots = line_slots * 8

  let pp = function
    | Store (w, v) -> Fmt.str "store word=%d value=%Ld" w v
    | Store_through (w, v) -> Fmt.str "store-through word=%d value=%Ld" w v
    | Drain None -> "drain"
    | Drain (Some k) -> Fmt.str "drain, power cut at flush %d" k
    | Crash -> "crash"
    | Durable w -> Fmt.str "durable-value word=%d" w
    | Line l -> Fmt.str "buffered-in-line line=%d" l

  let gen rng =
    let word () = Random.State.int rng word_slots in
    let value () = Random.State.int64 rng Int64.max_int in
    match Random.State.int rng 100 with
    | n when n < 40 -> Store (word (), value ())
    | n when n < 52 -> Store_through (word (), value ())
    | n when n < 60 -> Drain None
    | n when n < 66 -> Drain (Some (Random.State.int rng 6))
    | n when n < 70 -> Crash
    | n when n < 85 -> Durable (word ())
    | _ -> Line (Random.State.int rng line_slots)

  exception Power_cut

  let harness () =
    Engine.Packed
      {
        Engine.component = "persist";
        gen;
        pp;
        init =
          (fun ~seed:_ ->
            let pm = Physmem.create () in
            let frame = Array.init frames (fun _ -> Physmem.alloc_frame pm Layout.Nvm) in
            let p = Persist.create (Persist.Epoch { interval = 8 }) pm in
            let cfg = Config.default in
            let cpu = Cpu.create cfg (Mem.create ()) in
            let hook_runs = ref 0 in
            let arm_hook () = Persist.set_drain_hook p (Some (fun () -> incr hook_runs)) in
            arm_hook ();
            (* the reference model *)
            let pending : (int, int64) Hashtbl.t = Hashtbl.create 64 in
            let newest : (int, int64) Hashtbl.t = Hashtbl.create 64 in
            let buffered = ref 0 and flushes = ref 0 and fences = ref 0 in
            let drains = ref 0 and dropped = ref 0 in
            let key f word_index = (f * Layout.words_per_page) + word_index in
            let locate slot =
              let l = slot / 8 in
              ( frame.(l / Array.length lines),
                (lines.(l mod Array.length lines) * 8) + (slot mod 8) )
            in
            let media k = Option.value (Hashtbl.find_opt newest k) ~default:0L in
            let store slot v =
              let f, word_index = locate slot in
              Physmem.write_word pm ~frame:f ~word_index v;
              Hashtbl.replace newest (key f word_index) v
            in
            let check () =
              let counts =
                [
                  ("stores_buffered", Persist.stores_buffered p, !buffered);
                  ("flushes", Persist.flushes p, !flushes);
                  ("fences", Persist.fences p, !fences);
                  ("drains", Persist.drains p, !drains);
                  ("crash_dropped", Persist.crash_dropped p, !dropped);
                  ("pending_words", Persist.pending_words p, Hashtbl.length pending);
                  ("drain hook runs", !hook_runs, !fences);
                  ( "stall cycles",
                    Cpu.cycles cpu,
                    (!flushes * cfg.Config.flush_latency)
                    + (!fences * cfg.Config.fence_latency) );
                ]
              in
              List.iter
                (fun (name, got, want) ->
                  if got <> want then fail "%s %d, model %d" name got want)
                counts
            in
            fun op ->
              (match op with
              | Store (slot, v) ->
                  let f, word_index = locate slot in
                  let k = key f word_index in
                  if not (Hashtbl.mem pending k) then begin
                    Hashtbl.add pending k (media k);
                    incr buffered
                  end;
                  store slot v
              | Store_through (slot, v) ->
                  let f, word_index = locate slot in
                  Hashtbl.remove pending (key f word_index);
                  Persist.with_eager p (fun () -> store slot v)
              | Drain cut ->
                  let seen = ref [] and announced = ref 0 in
                  Physmem.set_fi_hook pm
                    (Some
                       (function
                       | Fi.Flush_line { frame; line } ->
                           seen := `Flush (frame, line) :: !seen;
                           if cut = Some !announced then raise Power_cut;
                           incr announced
                       | Fi.Fence -> seen := `Fence :: !seen
                       | _ -> ()));
                  let cut_off =
                    match Persist.drain p ~cpu ~cfg with
                    | () -> false
                    | exception Power_cut -> true
                  in
                  Physmem.set_fi_hook pm None;
                  let expected = ref [] and model_cut = ref false in
                  if Hashtbl.length pending > 0 then begin
                    incr drains;
                    let line_ids =
                      Hashtbl.fold (fun k _ acc -> (k lsr 3) :: acc) pending []
                      |> List.sort_uniq compare
                    in
                    List.iteri
                      (fun i id ->
                        if not !model_cut then begin
                          expected :=
                            `Flush (id / (Layout.words_per_page / 8), id mod (Layout.words_per_page / 8))
                            :: !expected;
                          if cut = Some i then model_cut := true
                          else begin
                            for w = 0 to 7 do
                              Hashtbl.remove pending ((id lsl 3) lor w)
                            done;
                            incr flushes
                          end
                        end)
                      line_ids;
                    if not !model_cut then begin
                      expected := `Fence :: !expected;
                      incr fences
                    end
                  end;
                  if cut_off <> !model_cut then
                    fail "drain %s, model %s"
                      (if cut_off then "cut" else "completed")
                      (if !model_cut then "cut" else "completed");
                  if List.length !seen <> List.length !expected then
                    fail "drain announced %d events, model %d"
                      (List.length !seen) (List.length !expected);
                  if !seen <> !expected then
                    fail "drain flush order diverges from the model"
              | Crash ->
                  Persist.crash p;
                  arm_hook ();
                  Hashtbl.iter (fun k durable -> Hashtbl.replace newest k durable) pending;
                  dropped := !dropped + Hashtbl.length pending;
                  Hashtbl.reset pending;
                  Array.iter
                    (fun f ->
                      for word_index = 0 to Layout.words_per_page - 1 do
                        let got = Physmem.peek pm ~frame:f ~word_index in
                        let want = media (key f word_index) in
                        if got <> want then
                          fail "after crash frame %d word %d holds %Ld, model %Ld" f
                            word_index got want
                      done)
                    frame
              | Durable slot ->
                  let f, word_index = locate slot in
                  let k = key f word_index in
                  let want =
                    match Hashtbl.find_opt pending k with
                    | Some v -> v
                    | None -> media k
                  in
                  let got = Persist.durable_value p ~frame:f ~word_index in
                  if got <> want then
                    fail "durable value of word %d: %Ld, model %Ld" slot got want
              | Line l ->
                  let f, first = locate (l * 8) in
                  let line = first / 8 in
                  let want =
                    List.filter_map
                      (fun w ->
                        Option.map
                          (fun v -> (first + w, v))
                          (Hashtbl.find_opt pending (key f (first + w))))
                      (List.init 8 Fun.id)
                  in
                  if Persist.buffered_in_line p ~frame:f ~line <> want then
                    fail "buffered words of line %d diverge from the model" l);
              check ());
      }
end

(* --- physical frames ------------------------------------------------------ *)

(* Model: the next free frame number of each region, the frames
   touched, and a (frame, word) -> value map.  Frames are drawn mostly
   from the first dozen numbers of each region, now and then from the
   first 400, so accesses hit reserved, untouched, unreserved and
   crash-recycled frames and the frame arrays grow while holding data.
   An access to a frame that is not reserved must raise
   [Invalid_argument]. *)
module Physmem_h = struct
  module Physmem = Nvml_simmem.Physmem
  module Layout = Nvml_simmem.Layout

  type op =
    | Alloc of Layout.region
    | Alloc_run of Layout.region * int
    | Write of bool * int * int * int64 (* via write_pa?, frame, word, value *)
    | Read_pa of int * int
    | Exists of int
    | Crash

  let pp = function
    | Alloc r -> Fmt.str "alloc %a" Layout.pp_region r
    | Alloc_run (r, n) -> Fmt.str "alloc-run %a %d" Layout.pp_region r n
    | Write (pa, f, w, v) ->
        Fmt.str "%s frame=%d word=%d %Ld"
          (if pa then "write-pa" else "write-word")
          f w v
    | Read_pa (f, w) -> Fmt.str "read-pa frame=%d word=%d" f w
    | Exists f -> Fmt.str "frame-exists %d" f
    | Crash -> "crash"

  let gen rng =
    (* Below [n] three times in four, else below [large]. *)
    let below n large =
      Random.State.int rng (if Random.State.int rng 4 < 3 then n else large)
    in
    let region () = if Random.State.bool rng then Layout.Nvm else Layout.Dram in
    let frame () =
      match region () with
      | Layout.Dram -> below 12 400
      | Layout.Nvm -> Layout.nvm_phys_frame_base + below 12 400
    in
    let word () = Random.State.int rng Layout.words_per_page in
    match Random.State.int rng 21 with
    | n when n < 3 -> Alloc (region ())
    | n when n < 5 ->
        let r = region () in
        Alloc_run (r, 1 + below 4 200)
    | n when n < 13 -> Write (n >= 9, frame (), word (), Random.State.bits64 rng)
    | n when n < 18 -> Read_pa (frame (), word ())
    | n when n < 20 -> Exists (frame ())
    | _ -> Crash

  let harness () =
    Engine.Packed
      {
        Engine.component = "physmem";
        gen;
        pp;
        init =
          (fun ~seed:_ ->
            let pm = Physmem.create () in
            let dram = ref 1 and nvm = ref Layout.nvm_phys_frame_base in
            let touched = Hashtbl.create 16 and words = Hashtbl.create 64 in
            let reserve r n got =
              let next = match r with Layout.Dram -> dram | Layout.Nvm -> nvm in
              if got <> !next then fail "frame %d allocated, model %d" got !next;
              next := !next + n
            in
            let pa f w = (f lsl Layout.page_shift) lor (w lsl 3) in
            (* Run [k] on frame [f] and pass its result to [expect]; on
               a frame that is not reserved, [k] must raise. *)
            let access f k expect =
              if
                (f >= 1 && f < !dram)
                || (f >= Layout.nvm_phys_frame_base && f < !nvm)
              then begin
                Hashtbl.replace touched f ();
                expect (k ())
              end
              else
                match k () with
                | _ -> fail "access to unreserved frame %d accepted" f
                | exception Invalid_argument _ -> ()
            in
            fun op ->
              match op with
              | Alloc r -> reserve r 1 (Physmem.alloc_frame pm r)
              | Alloc_run (r, n) -> reserve r n (Physmem.alloc_frame_run pm r n)
              | Write (via_pa, f, w, v) ->
                  access f
                    (fun () ->
                      if via_pa then Physmem.write_pa pm (pa f w) v
                      else Physmem.write_word pm ~frame:f ~word_index:w v)
                    (fun () -> Hashtbl.replace words (f, w) v)
              | Read_pa (f, w) ->
                  access f
                    (fun () -> Physmem.read_pa pm (pa f w))
                    (fun got ->
                      let want =
                        Option.value ~default:0L (Hashtbl.find_opt words (f, w))
                      in
                      if got <> want then
                        fail "read-pa frame %d word %d: %Ld, model %Ld" f w got
                          want)
              | Exists f ->
                  let got = Physmem.frame_exists pm f in
                  if got <> Hashtbl.mem touched f then
                    fail "frame-exists %d: %b, model %b" f got (not got)
              | Crash ->
                  (* DRAM frames lose their words and their numbers. *)
                  Physmem.crash pm;
                  dram := 1;
                  let kept f = f >= Layout.nvm_phys_frame_base in
                  Hashtbl.filter_map_inplace
                    (fun f () -> if kept f then Some () else None)
                    touched;
                  Hashtbl.filter_map_inplace
                    (fun (f, _) v -> if kept f then Some v else None)
                    words);
      }
end

(* --- page map ------------------------------------------------------------- *)

(* Model: a page -> frame map.  Runs of 1-3 pages start on 64 slots
   whose pages alias in groups of eight on the translation cache's
   index bits, so the direct-mapped cache in front of the segment list
   is refilled and invalidated all the time; after every op each page
   of the run and every mapped page must translate as the map says.
   A second space, made at init and after each crash, maps nothing:
   every cache block starts as one shared empty block, so a refill that
   writes through it shows as a page translating on the second space. *)
module Vspace_h = struct
  module Vspace = Nvml_simmem.Vspace
  module Layout = Nvml_simmem.Layout

  type kind = Map | Unmap | Translate
  type op = Run of kind * int * int (* slot, pages *) | Crash

  let pp = function
    | Run (k, s, n) ->
        Fmt.str "%s slot=%d pages=%d"
          (match k with Map -> "map" | Unmap -> "unmap" | _ -> "translate")
          s n
    | Crash -> "crash"

  let gen rng =
    if Random.State.int rng 50 = 0 then Crash
    else
      let kind = [| Map; Unmap; Translate |].(Random.State.int rng 3) in
      let slot = Random.State.int rng 64 in
      Run (kind, slot, 1 + Random.State.int rng 3)

  let harness () =
    Engine.Packed
      {
        Engine.component = "vspace";
        gen;
        pp;
        init =
          (fun ~seed:_ ->
            let vs = Vspace.create () and bystander = ref (Vspace.create ()) in
            let model = Hashtbl.create 64 and next_frame = ref 1 in
            let agrees p =
              let got = Vspace.translate_pa vs (Layout.va_of_page p) in
              let want =
                match Hashtbl.find_opt model p with
                | Some f -> f lsl Layout.page_shift
                | None -> -1
              in
              if got <> want then
                fail "page %d translates to %d, model %d" p got want;
              let stray =
                Vspace.translate_pa !bystander (Layout.va_of_page p)
              in
              if stray <> -1 then
                fail "page %d translates to %d in a space that maps nothing" p
                  stray
            in
            fun op ->
              (match op with
              | Crash ->
                  Vspace.crash vs;
                  bystander := Vspace.create ();
                  Hashtbl.reset model
              | Run (kind, s, n) ->
                  let first = 16 + (s land 7) + (4096 * (s lsr 3)) in
                  let pages = List.init n (( + ) first) in
                  (match kind with
                  | Map when not (List.exists (Hashtbl.mem model) pages) ->
                      Vspace.map_seg vs ~vpage:first ~pages:n
                        ~first_frame:!next_frame;
                      List.iteri
                        (fun i p -> Hashtbl.replace model p (!next_frame + i))
                        pages;
                      next_frame := !next_frame + n
                  | Unmap ->
                      Vspace.unmap_range vs ~base:(Layout.va_of_page first)
                        ~pages:n;
                      List.iter (Hashtbl.remove model) pages
                  | _ -> ());
                  List.iter agrees pages);
              Hashtbl.iter (fun p _ -> agrees p) model);
      }
end

(* --- keep-relative window ------------------------------------------------- *)

(* Model: the structures the window replaced, a [Hashtbl] from VA to
   relative form plus a [Queue] of the VAs in insertion order.  The 48
   VAs lie on distinct NVM words, so the FIFO evicts as well as
   deduplicates, and every one is looked up after each op. *)
module Relwin_h = struct
  module W = Nvml_runtime.Rel_window
  module Layout = Nvml_simmem.Layout

  type op = Remember of int * int64 | Clear

  let vas = 48

  let pp = function
    | Remember (v, r) -> Fmt.str "remember va#%d rel=0x%Lx" v r
    | Clear -> "clear"

  let gen rng =
    if Random.State.int rng 100 = 0 then Clear
    else Remember (Random.State.int rng vas, Random.State.bits64 rng)

  let harness () =
    Engine.Packed
      {
        Engine.component = "relwin";
        gen;
        pp;
        init =
          (fun ~seed:_ ->
            let w = W.create () in
            let tbl = Hashtbl.create 64 and fifo = Queue.create () in
            let va v = Int64.add Layout.nvm_va_base (Int64.of_int (v * 24)) in
            fun op ->
              (match op with
              | Remember (v, rel) ->
                  if not (Hashtbl.mem tbl v) then begin
                    if Queue.length fifo = W.capacity then
                      Hashtbl.remove tbl (Queue.pop fifo);
                    Hashtbl.replace tbl v rel;
                    Queue.push v fifo
                  end;
                  W.remember w ~va:(va v) ~rel
              | Clear ->
                  Hashtbl.reset tbl;
                  Queue.clear fifo;
                  W.clear w);
              for v = 0 to vas - 1 do
                let s = W.find w (va v) in
                let got = if s < 0 then None else Some (W.rel w s) in
                let want = Hashtbl.find_opt tbl v in
                let pp = Fmt.(Dump.option int64) in
                if got <> want then
                  fail "va#%d: window holds %a, model %a" v pp got pp want
              done);
      }
end

(* --- VATB range B-tree ----------------------------------------------------- *)

(* Model: a slot-indexed table of mapped sizes; slot [i] owns base
   [i * 0x10000], so ranges are disjoint by construction, as pool
   mappings are. *)
module Vatb_h = struct
  type op =
    | Insert of int * int (* slot, pages *)
    | Remove of int
    | Lookup of int * int (* slot, delta *)
    | Check

  let slots = 48

  let base slot = Int64.of_int (slot * 0x10000)

  let pp = function
    | Insert (s, p) -> Fmt.str "insert slot=%d pages=%d" s p
    | Remove s -> Fmt.str "remove slot=%d" s
    | Lookup (s, d) -> Fmt.str "lookup slot=%d +0x%x" s d
    | Check -> "check-invariants"

  let gen rng =
    let slot () = Random.State.int rng slots in
    match Random.State.int rng 100 with
    | n when n < 40 -> Insert (slot (), 1 + Random.State.int rng 16)
    | n when n < 60 -> Remove (slot ())
    | n when n < 90 -> Lookup (slot (), Random.State.int rng 0x10000)
    | _ -> Check

  let harness () =
    Engine.Packed
      {
        Engine.component = "vatb";
        gen;
        pp;
        init =
          (fun ~seed:_ ->
            let t = Btree.create () in
            let model = Hashtbl.create 32 in
            fun op ->
              match op with
              | Insert (slot, pages) ->
                  let size = Int64.of_int (pages * 0x1000) in
                  Btree.insert t ~base:(base slot) ~size ~pool:slot;
                  Hashtbl.replace model slot size
              | Remove slot ->
                  let removed = Btree.remove t (base slot) in
                  let expected = Hashtbl.mem model slot in
                  Hashtbl.remove model slot;
                  if removed <> expected then
                    fail "remove slot %d: tree says %b, model says %b" slot
                      removed expected
              | Lookup (slot, delta) ->
                  let va = Int64.add (base slot) (Int64.of_int delta) in
                  let expected =
                    match Hashtbl.find_opt model slot with
                    | Some size when Int64.of_int delta < size -> Some slot
                    | _ -> None
                  in
                  (match (Btree.lookup t va, expected) with
                  | None, None -> ()
                  | Some (e, visited), Some pool ->
                      if e.Btree.pool <> pool then
                        fail "lookup 0x%Lx: pool %d, model %d" va
                          e.Btree.pool pool;
                      if visited < 1 || visited > Btree.height t then
                        fail "lookup walked %d nodes in a height-%d tree"
                          visited (Btree.height t)
                  | Some (e, _), None ->
                      fail "lookup 0x%Lx: hit pool %d, model says miss" va
                        e.Btree.pool
                  | None, Some pool ->
                      fail "lookup 0x%Lx: miss, model says pool %d" va pool)
              | Check ->
                  Btree.check_invariants t;
                  if Btree.length t <> Hashtbl.length model then
                    fail "tree has %d ranges, model %d" (Btree.length t)
                      (Hashtbl.length model);
                  List.iter
                    (fun (e : Btree.entry) ->
                      match Hashtbl.find_opt model e.pool with
                      | Some size
                        when Int64.equal e.base (base e.pool)
                             && Int64.equal e.size size ->
                          ()
                      | _ ->
                          fail "tree entry (0x%Lx, %Ld, pool %d) not in model"
                            e.base e.size e.pool)
                    (Btree.to_list t));
      }
end

(* --- free-list allocator --------------------------------------------------- *)

(* Model: the heap as a sorted list of (offset, size, allocated) blocks
   tiling [heap_start, capacity); first-fit is a scan in offset order,
   which is exactly the sorted free list the implementation keeps. *)
module Fl_model = struct
  type block = { off : int64; size : int64; allocated : bool }
  type t = { mutable blocks : block list; cap : int64 }

  let ( +! ) = Int64.add
  let ( -! ) = Int64.sub

  let create cap =
    {
      blocks =
        [
          {
            off = Freelist.heap_start;
            (* The top [replica_size] bytes hold the replica superblock,
               outside the heap tiling. *)
            size = cap -! Freelist.replica_size -! Freelist.heap_start;
            allocated = false;
          };
        ];
      cap;
    }

  let round16 n = Int64.logand (n +! 15L) (Int64.lognot 15L)

  exception No_fit

  let alloc t size =
    let need = round16 size +! Freelist.header_size in
    let rec go acc = function
      | [] -> raise No_fit
      | b :: rest when (not b.allocated) && b.size >= need ->
          let taken, rest' =
            if b.size -! need >= Freelist.min_block then
              ( need,
                { off = b.off +! need; size = b.size -! need; allocated = false }
                :: rest )
            else (b.size, rest)
          in
          ( List.rev_append acc
              ({ off = b.off; size = taken; allocated = true } :: rest'),
            b.off +! Freelist.header_size )
      | b :: rest -> go (b :: acc) rest
    in
    let blocks, payload = go [] t.blocks in
    t.blocks <- blocks;
    payload

  let coalesce blocks =
    let rec go = function
      | a :: b :: rest
        when (not a.allocated) && (not b.allocated)
             && Int64.equal (a.off +! a.size) b.off ->
          go ({ a with size = a.size +! b.size } :: rest)
      | a :: rest -> a :: go rest
      | [] -> []
    in
    go blocks

  let free t payload =
    let off = payload -! Freelist.header_size in
    t.blocks <-
      coalesce
        (List.map
           (fun b -> if Int64.equal b.off off then { b with allocated = false } else b)
           t.blocks)

  let allocated_bytes t =
    List.fold_left
      (fun acc b -> if b.allocated then acc +! b.size else acc)
      0L t.blocks

  let live t =
    List.filter_map
      (fun b ->
        if b.allocated then Some (b.off +! Freelist.header_size, b.size)
        else None)
      t.blocks

  let is_live t payload =
    List.exists (fun (p, _) -> Int64.equal p payload) (live t)

  let alloc_opt t size =
    match alloc t size with p -> Some p | exception No_fit -> None

  (* The [i mod n]-th of the [n] live blocks as (payload, size), if any. *)
  let pick t i =
    match live t with [] -> None | l -> Some (List.nth l (i mod List.length l))

  (* Payload word [i mod n] of a live block with [n] payload words. *)
  let word (payload, size) i =
    let n = Int64.to_int (Int64.div size 8L) - 2 in
    Int64.add payload (Int64.of_int (8 * (i mod n)))
end

(* An allocator's answer against the model's: both out of memory, or
   the same payload offset. *)
let same_alloc what sut want =
  match (sut, want) with
  | Some o, Some w when not (Int64.equal o w) ->
      fail "%s: offset %Ld, model %Ld" what o w
  | Some _, None -> fail "%s: model is out of memory, allocator isn't" what
  | None, Some _ -> fail "%s: out of memory, but the model fits" what
  | _ -> ()

(* [n] pools of [size] bytes in [pm], named [prefix]0, [prefix]1, ...,
   with a block-list model each. *)
let create_pools pm ~prefix ~n ~size =
  let name i = Fmt.str "%s%d" prefix i in
  ( name,
    Array.init n (fun i -> Pmop.create_pool pm ~name:(name i) ~size),
    Array.init n (fun _ -> Fl_model.create (Int64.of_int size)) )

(* [pmalloc] of [n] bytes in pool [i] against its model; true when it
   allocated. *)
let pmalloc_agrees pm ~pool model i n =
  let sut =
    match Pmop.pmalloc pm ~pool n with
    | ptr -> Some (Ptr.offset_of ptr)
    | exception Freelist.Out_of_memory -> None
  in
  same_alloc (Fmt.str "pmalloc pool %d" i) sut
    (Fl_model.alloc_opt model (Int64.of_int n));
  sut <> None

(* Pool [i]'s invariants, allocated bytes and root against its model. *)
let pool_agrees pm ~pool model ~root i =
  ignore (Pmop.check_pool_invariants pm ~pool);
  let sut = Pmop.allocated_bytes pm ~pool in
  let want = Fl_model.allocated_bytes model in
  if not (Int64.equal sut want) then
    fail "pool %d: allocated %Ld bytes, model %Ld" i sut want;
  let got = Pmop.get_root pm ~pool in
  if not (Int64.equal got root) then
    fail "pool %d: root 0x%Lx, model 0x%Lx" i got root

module Freelist_h = struct
  type op =
    | Alloc of int
    | Free of int (* index into the live list *)
    | Free_bogus of int (* offset selector *)
    | Scribble of int * int64 (* live index, planted word *)
    | Check

  let cap = 8192L

  let pp = function
    | Alloc n -> Fmt.str "alloc %d" n
    | Free i -> Fmt.str "free #%d" i
    | Free_bogus off -> Fmt.str "free-bogus sel=%d" off
    | Scribble (i, w) -> Fmt.str "scribble #%d word=0x%Lx" i w
    | Check -> "check-invariants"

  let gen rng =
    match Random.State.int rng 100 with
    | n when n < 38 -> Alloc (1 + Random.State.int rng 600)
    | n when n < 62 -> Free (Random.State.int rng 64)
    | n when n < 74 ->
        (* Plant either a fake allocated header whose size runs past the
           arena (the pre-fix [free] accepted those) or an even word
           that fails the allocated-bit test. *)
        let w =
          if Random.State.bool rng then
            Int64.logor
              (Int64.logand
                 (Int64.of_int (8192 + Random.State.int rng 16384))
                 (Int64.lognot 15L))
              1L
          else Int64.of_int (Random.State.int rng 1000 * 2)
        in
        Scribble (Random.State.int rng 64, w)
    | n when n < 88 -> Free_bogus (Random.State.int rng 8192)
    | _ -> Check

  (* A tiny word-addressed arena; reads of never-written words are 0,
     like fresh simulated memory. *)
  let make_arena () =
    let words : (int64, int64) Hashtbl.t = Hashtbl.create 256 in
    let a =
      {
        Freelist.read =
          (fun off -> Option.value ~default:0L (Hashtbl.find_opt words off));
        write = (fun off v -> Hashtbl.replace words off v);
      }
    in
    (a, words)

  let check a model =
    ignore (Freelist.check_invariants a);
    let sut = Freelist.allocated_bytes a in
    let want = Fl_model.allocated_bytes model in
    if not (Int64.equal sut want) then
      fail "allocated %Ld bytes, model %Ld" sut want

  let harness () =
    Engine.Packed
      {
        Engine.component = "freelist";
        gen;
        pp;
        init =
          (fun ~seed:_ ->
            let a, words = make_arena () in
            Freelist.init a ~capacity:cap;
            let model = Fl_model.create cap in
            fun op ->
              match op with
              | Alloc n ->
                  let sut =
                    match Freelist.alloc a (Int64.of_int n) with
                    | p -> Some p
                    | exception Freelist.Out_of_memory -> None
                  in
                  same_alloc (Fmt.str "alloc %d" n) sut
                    (Fl_model.alloc_opt model (Int64.of_int n))
              | Free i ->
                  Fl_model.pick model i
                  |> Option.iter (fun (payload, _) ->
                         Freelist.free a payload;
                         Fl_model.free model payload;
                         check a model)
              | Free_bogus sel ->
                  let payload =
                    Int64.logand
                      (Int64.add Freelist.heap_start (Int64.of_int sel))
                      (Int64.lognot 7L)
                  in
                  if Fl_model.is_live model payload then begin
                    Freelist.free a payload;
                    Fl_model.free model payload;
                    check a model
                  end
                  else begin
                    (match Freelist.free a payload with
                    | () ->
                        fail "free of bogus offset %Ld accepted" payload
                    | exception Freelist.Corrupt_arena _ -> ());
                    check a model
                  end
              | Scribble (i, w) ->
                  (* Application bytes inside a live payload: arbitrary,
                     and none of the allocator's business. *)
                  Fl_model.pick model i
                  |> Option.iter (fun block ->
                         Hashtbl.replace words (Fl_model.word block i) w)
              | Check -> check a model);
      }
end

(* --- the pool manager (freelists + crash/reopen) -------------------------- *)

(* The heaps are checked against [Fl_model] and the roots against the
   last value set.  Application words written into live payloads are
   remembered until their block is freed, and every one must read back
   after a crash re-opens the pools at new bases. *)
module Pmop_h = struct
  module Xlate = Nvml_core.Xlate

  type op =
    | Pmalloc of int * int (* pool index, size *)
    | Pfree of int * int (* pool index, live-list selector *)
    | Write of int * int * int64 (* pool index, live-list selector, word *)
    | Set_root of int * int64
    | Crash
    | Check

  let npools = 3
  let pool_size = 65536

  let pp = function
    | Pmalloc (p, n) -> Fmt.str "pmalloc pool=%d %d" p n
    | Pfree (p, i) -> Fmt.str "pfree pool=%d #%d" p i
    | Write (p, i, v) -> Fmt.str "write pool=%d #%d 0x%Lx" p i v
    | Set_root (p, v) -> Fmt.str "set-root pool=%d 0x%Lx" p v
    | Crash -> "crash+reopen"
    | Check -> "check-invariants"

  let gen rng =
    let pool () = Random.State.int rng npools in
    match Random.State.int rng 100 with
    | n when n < 36 -> Pmalloc (pool (), 1 + Random.State.int rng 3000)
    | n when n < 58 -> Pfree (pool (), Random.State.int rng 64)
    | n when n < 72 ->
        let i = Random.State.int rng 64 in
        Write (pool (), i, Random.State.int64 rng Int64.max_int)
    | n when n < 82 ->
        Set_root (pool (), Random.State.int64 rng Int64.max_int)
    | n when n < 90 -> Crash
    | _ -> Check

  let harness () =
    Engine.Packed
      {
        Engine.component = "pmop";
        gen;
        pp;
        init =
          (fun ~seed:_ ->
            let mem = Mem.create () in
            let pm = Pmop.create mem in
            let x = Xlate.make (Pmop.provider pm) in
            let name, ids, models =
              create_pools pm ~prefix:"fz" ~n:npools ~size:pool_size
            in
            let roots = Array.make npools 0L in
            (* (pool index, payload offset) -> the word written there *)
            let words = Hashtbl.create 64 in
            let va p off =
              Xlate.ra2va x (Ptr.make_relative ~pool:ids.(p) ~offset:off)
            in
            let check_pool i =
              pool_agrees pm ~pool:ids.(i) models.(i) ~root:roots.(i) i
            in
            let check_all () =
              for i = 0 to npools - 1 do
                check_pool i
              done;
              Hashtbl.iter
                (fun (p, off) want ->
                  let got = Mem.read_word mem (va p off) in
                  if not (Int64.equal got want) then
                    fail "pool %d: word at %Ld holds 0x%Lx, model 0x%Lx" p off
                      got want)
                words
            in
            fun op ->
              match op with
              | Pmalloc (p, n) ->
                  ignore (pmalloc_agrees pm ~pool:ids.(p) models.(p) p n)
              | Pfree (p, i) ->
                  Fl_model.pick models.(p) i
                  |> Option.iter (fun (payload, size) ->
                         Pmop.pfree pm
                           (Ptr.make_relative ~pool:ids.(p) ~offset:payload);
                         Fl_model.free models.(p) payload;
                         let past = Int64.add payload size in
                         Hashtbl.filter_map_inplace
                           (fun (q, off) v ->
                             if q = p && off >= payload && off < past then None
                             else Some v)
                           words;
                         check_pool p)
              | Write (p, i, v) ->
                  Fl_model.pick models.(p) i
                  |> Option.iter (fun block ->
                         let off = Fl_model.word block i in
                         Mem.write_word mem (va p off) v;
                         Hashtbl.replace words (p, off) v)
              | Set_root (p, v) ->
                  Pmop.set_root pm ~pool:ids.(p) v;
                  roots.(p) <- v
              | Crash ->
                  (* Power failure: mappings vanish, NVM frames survive;
                     every pool must re-open with its heap and payloads
                     intact. *)
                  Pmop.crash pm;
                  for i = 0 to npools - 1 do
                    ignore (Pmop.open_pool pm (name i))
                  done;
                  check_all ()
              | Check -> check_all ());
      }
end

(* --- undo-log transactions ------------------------------------------------ *)

(* Model: the committed image of 8 pool words and the image a reader
   sees.  A transaction's stores change only the latter, a commit copies
   it to the former, and an abort or a crash (then [recover] through the
   log re-attached at its new base) restores the committed image.  The
   stores go through [Txn.instrument] on an HW machine, so the model
   also predicts the log's count, the store that overflows its 6
   entries, the protocol errors and what [recover] reports. *)
module Txn_h = struct
  module Txn = Nvml_runtime.Txn

  type op = Begin | Store of int * int64 | Commit | Abort | Crash

  let cells = 8
  let capacity = 6

  let pp = function
    | Begin -> "begin"
    | Store (i, v) -> Fmt.str "store cell=%d %Ld" i v
    | Commit -> "commit"
    | Abort -> "abort"
    | Crash -> "crash+recover"

  let gen rng =
    match Random.State.int rng 100 with
    | n when n < 20 -> Begin
    | n when n < 70 ->
        Store (Random.State.int rng cells, Random.State.int64 rng 1000L)
    | n when n < 82 -> Commit
    | n when n < 94 -> Abort
    | _ -> Crash

  let rolled_back = function Txn.Clean -> None | Txn.Rolled_back n -> Some n

  let harness ~cfg () =
    Engine.Packed
      {
        Engine.component = "txn";
        gen;
        pp;
        init =
          (fun ~seed:_ ->
            let rt = Runtime.create ~cfg ~mode:Runtime.Hw () in
            let pool = Runtime.create_pool rt ~name:"txn" ~size:(1 lsl 16) in
            let arr = Runtime.alloc rt ~pool ~persistent:true (8 * cells) in
            let txn = ref (Txn.create rt ~pool ~capacity ()) in
            let header = Txn.header !txn in
            Txn.instrument !txn;
            let committed = Array.make cells 0L in
            let current = Array.make cells 0L in
            let active = ref false and logged = ref 0 in
            let refused what exn f =
              match f () with
              | () -> fail "%s not refused" what
              | exception e when e = exn -> ()
            in
            fun op ->
              (match op with
              | Begin when !active ->
                  refused "nested begin" Txn.Already_active (fun () ->
                      Txn.begin_ !txn)
              | (Commit | Abort) when not !active ->
                  refused (pp op) Txn.Not_active (fun () ->
                      if op = Commit then Txn.commit !txn else Txn.abort !txn)
              | Store (i, v) when !active && !logged = capacity ->
                  refused "store into a full log" Txn.Log_full (fun () ->
                      Runtime.store_word rt ~site arr ~off:(8 * i) v)
              | Begin ->
                  Txn.begin_ !txn;
                  active := true;
                  logged := 0
              | Store (i, v) ->
                  Runtime.store_word rt ~site arr ~off:(8 * i) v;
                  current.(i) <- v;
                  if !active then incr logged else committed.(i) <- v
              | Commit ->
                  Txn.commit !txn;
                  Array.blit current 0 committed 0 cells;
                  active := false
              | Abort ->
                  Txn.abort !txn;
                  Array.blit committed 0 current 0 cells;
                  active := false
              | Crash ->
                  Runtime.crash_and_restart rt;
                  ignore (Runtime.open_pool rt "txn");
                  txn := Txn.attach rt header;
                  Txn.instrument !txn;
                  let got = rolled_back (Txn.recover !txn) in
                  let want = if !active then Some !logged else None in
                  if got <> want then
                    fail "recovery rolled back %a, model %a"
                      Fmt.(Dump.option int) got Fmt.(Dump.option int) want;
                  Array.blit committed 0 current 0 cells;
                  active := false);
              if Txn.is_active !txn <> !active then
                fail "log active %b, model %b" (not !active) !active;
              let count = if !active then !logged else 0 in
              if Txn.count !txn <> count then
                fail "log holds %d entries, model %d" (Txn.count !txn) count;
              Array.iteri
                (fun i want ->
                  let got = Runtime.load_word rt ~site arr ~off:(8 * i) in
                  if got <> want then
                    fail "cell %d holds %Ld, model %Ld" i got want)
                current);
      }
end

(* --- media faults: integrity metadata vs a corruption ledger -------------- *)

(* The reference model here is a per-pool *corruption ledger*: exactly
   which metadata words we flipped (primary superblock, replica
   superblock, block headers), keyed by offset and remembering the
   original value so a second flip of the same bit un-plants it.  The
   ledger predicts, exactly:

     - which findings a scrub must report (and which [--repair] must
       fix: a corrupt primary is restored from an intact replica, a
       corrupt replica is rewritten by the re-seal),
     - which pools must come back read-only degraded after a crash,
     - which allocator calls must be refused ([Media_error]) or
       detected ([Corrupt_arena]) before mutating anything.

   Bit flips are planted through [Pmop.scrub_access], the same raw
   bypass the repair engine writes through.  Superblock flips are only
   planted while the pool is sealed — on a dirty pool the checksum is
   legitimately stale, exactly the window the journal (not the CRC)
   covers, so a flip there would be undetectable by design. *)
module Media_h = struct
  type op =
    | Pmalloc of int * int (* pool index, size *)
    | Pfree of int * int (* pool index, live-list selector *)
    | Set_root of int * int64
    | Seal of int
    | Flip_sb of int * int * int (* pool, superblock-word selector, bit *)
    | Flip_replica of int * int * int
    | Flip_header of int * int * int (* pool, live-block selector, bit *)
    | Scrub of bool (* with --repair? *)
    | Crash
    | Check

  let npools = 2
  let pool_size = 32768

  (* The seven checksum-relevant superblock words: magic, capacity,
     free head, allocated bytes, alloc/free counters, integrity word.
     The root slot (32) is excluded from the checksum by design. *)
  let sb_words = [| 0L; 8L; 16L; 24L; 40L; 48L; 56L |]

  let pp = function
    | Pmalloc (p, n) -> Fmt.str "pmalloc pool=%d %d" p n
    | Pfree (p, i) -> Fmt.str "pfree pool=%d #%d" p i
    | Set_root (p, v) -> Fmt.str "set-root pool=%d 0x%Lx" p v
    | Seal p -> Fmt.str "seal pool=%d" p
    | Flip_sb (p, w, b) ->
        Fmt.str "flip-superblock pool=%d word=%d bit=%d" p w b
    | Flip_replica (p, w, b) ->
        Fmt.str "flip-replica pool=%d word=%d bit=%d" p w b
    | Flip_header (p, i, b) -> Fmt.str "flip-header pool=%d #%d bit=%d" p i b
    | Scrub true -> "scrub --repair"
    | Scrub false -> "scrub"
    | Crash -> "crash+reopen"
    | Check -> "check-invariants"

  let gen rng =
    let pool () = Random.State.int rng npools in
    (* Flip bits stay below 13 so a corrupted free-head / capacity word
       still lands inside the mapping: the walk must die on a checksum,
       not on an unmapped address. *)
    let bit () = Random.State.int rng 13 in
    match Random.State.int rng 100 with
    | n when n < 20 -> Pmalloc (pool (), 1 + Random.State.int rng 2000)
    | n when n < 34 -> Pfree (pool (), Random.State.int rng 64)
    | n when n < 42 -> Set_root (pool (), Random.State.int64 rng Int64.max_int)
    | n when n < 50 -> Seal (pool ())
    | n when n < 60 -> Flip_sb (pool (), Random.State.int rng 7, bit ())
    | n when n < 68 -> Flip_replica (pool (), Random.State.int rng 7, bit ())
    | n when n < 74 ->
        Flip_header (pool (), Random.State.int rng 64, Random.State.int rng 64)
    | n when n < 88 -> Scrub (Random.State.bool rng)
    | n when n < 94 -> Crash
    | _ -> Check

  let harness ~break () =
    Engine.Packed
      {
        Engine.component = "media";
        gen;
        pp;
        init =
          (fun ~seed:_ ->
            let pm = Pmop.create (Mem.create ()) in
            let name, ids, models =
              create_pools pm ~prefix:"mz" ~n:npools ~size:pool_size
            in
            let roots = Array.make npools 0L in
            (* Corruption ledgers: flipped word offset -> original value. *)
            let sb_bad = Array.init npools (fun _ -> Hashtbl.create 7) in
            let rep_bad = Array.init npools (fun _ -> Hashtbl.create 7) in
            let hdr_bad = Array.init npools (fun _ -> Hashtbl.create 7) in
            (* [create_pool] hands every pool back sealed. *)
            let sealed = Array.make npools true in
            let degraded = Array.make npools false in
            let walkable i =
              Hashtbl.length sb_bad.(i) = 0
              && Hashtbl.length hdr_bad.(i) = 0
              && not degraded.(i)
            in
            let check_pool i =
              pool_agrees pm ~pool:ids.(i) models.(i) ~root:roots.(i) i
            in
            let check_flags () =
              Array.iteri
                (fun i id ->
                  let sut = Pmop.is_degraded pm ~pool:id in
                  if sut <> degraded.(i) then
                    fail "pool %d: degraded=%b, model says %b" i sut
                      degraded.(i))
                ids
            in
            (* Flip one bit through the scrub bypass, maintaining the
               ledger: flipping a word back to its original value
               un-plants it. *)
            let flip p table off bit =
              let a = Pmop.scrub_access pm ~pool:ids.(p) in
              let v = a.Freelist.read off in
              let v' = Int64.logxor v (Int64.shift_left 1L bit) in
              a.Freelist.write off v';
              match Hashtbl.find_opt table off with
              | None -> Hashtbl.replace table off v
              | Some original ->
                  if Int64.equal v' original then Hashtbl.remove table off
            in
            (* An allocator call against corrupted sealed metadata must
               raise — and detection precedes the first write, so no
               state may have changed. *)
            let expect_detected what p f =
              match f () with
              | _ -> fail "%s on corrupted pool %d succeeded" what p
              | exception (Engine.Violation _ as e) -> raise e
              | exception _ -> ()
            in
            let expect_refused what p f =
              match f () with
              | _ -> fail "%s on degraded pool %d was not refused" what p
              | exception Media.Media_error _ -> ()
            in
            fun op ->
              match op with
              | Pmalloc (p, n) ->
                  if degraded.(p) then
                    expect_refused "pmalloc" p (fun () ->
                        Pmop.pmalloc pm ~pool:ids.(p) n)
                  else if sealed.(p) && Hashtbl.length sb_bad.(p) > 0 then
                    expect_detected "pmalloc" p (fun () ->
                        Pmop.pmalloc pm ~pool:ids.(p) n)
                  else if pmalloc_agrees pm ~pool:ids.(p) models.(p) p n then
                    sealed.(p) <- false
              | Pfree (p, i) ->
                  if degraded.(p) then
                    (* Refusal is eager: even a wild pointer must bounce
                       off the read-only gate before being validated. *)
                    expect_refused "pfree" p (fun () ->
                        Pmop.pfree pm
                          (Ptr.make_relative ~pool:ids.(p)
                             ~offset:
                               (Int64.add Freelist.heap_start
                                  Freelist.header_size)))
                  else
                    Fl_model.pick models.(p) i
                    |> Option.iter (fun (payload, _) ->
                           let ptr =
                             Ptr.make_relative ~pool:ids.(p) ~offset:payload
                           in
                           let blk = Int64.sub payload Freelist.header_size in
                           if sealed.(p) && Hashtbl.length sb_bad.(p) > 0 then
                             expect_detected "pfree" p (fun () ->
                                 Pmop.pfree pm ptr)
                           else if Hashtbl.mem hdr_bad.(p) blk then (
                             match Pmop.pfree pm ptr with
                             | () ->
                                 fail
                                   "pool %d: free over a corrupt header at %Ld \
                                    accepted"
                                   p blk
                             | exception Freelist.Corrupt_arena _ -> ())
                           else begin
                             Pmop.pfree pm ptr;
                             Fl_model.free models.(p) payload;
                             sealed.(p) <- false;
                             if walkable p then check_pool p
                           end)
              | Set_root (p, v) ->
                  if degraded.(p) then
                    expect_refused "set-root" p (fun () ->
                        Pmop.set_root pm ~pool:ids.(p) v)
                  else if sealed.(p) && Hashtbl.length sb_bad.(p) > 0 then
                    expect_detected "set-root" p (fun () ->
                        Pmop.set_root pm ~pool:ids.(p) v)
                  else begin
                    Pmop.set_root pm ~pool:ids.(p) v;
                    roots.(p) <- v;
                    sealed.(p) <- false
                  end
              | Seal p ->
                  Pmop.seal_pool pm ~pool:ids.(p);
                  if (not degraded.(p)) && not sealed.(p) then begin
                    sealed.(p) <- true;
                    (* Sealing rewrites the whole replica area. *)
                    Hashtbl.reset rep_bad.(p)
                  end
              | Flip_sb (p, w, b) ->
                  if sealed.(p) then flip p sb_bad.(p) sb_words.(w) b
              | Flip_replica (p, w, b) ->
                  let rb =
                    Int64.sub (Int64.of_int pool_size) Freelist.replica_size
                  in
                  flip p rep_bad.(p) (Int64.add rb sb_words.(w)) b
              | Flip_header (p, i, b) ->
                  Fl_model.pick models.(p) i
                  |> Option.iter (fun (payload, _) ->
                         let blk = Int64.sub payload Freelist.header_size in
                         flip p hdr_bad.(p) blk b)
              | Scrub r ->
                  let sc = Scrub.create pm in
                  if break then Scrub.enable_quirk sc Scrub.Blind_primary;
                  let report = Scrub.run sc ~repair:r in
                  Array.iteri
                    (fun i id ->
                      let pr =
                        match
                          List.find_opt
                            (fun (pr : Scrub.pool_report) -> pr.Scrub.pool = id)
                            report.Scrub.pools
                        with
                        | Some pr -> pr
                        | None -> fail "scrub skipped pool %d" i
                      in
                      let sb0 = Hashtbl.length sb_bad.(i) > 0 in
                      let rep0 = Hashtbl.length rep_bad.(i) > 0 in
                      let hdr0 = Hashtbl.length hdr_bad.(i) > 0 in
                      let has pred =
                        List.exists
                          (fun (f : Scrub.finding) -> pred f)
                          pr.Scrub.findings
                      in
                      let prim (f : Scrub.finding) =
                        f.Scrub.kind = Scrub.Superblock_primary
                      in
                      let repl (f : Scrub.finding) =
                        f.Scrub.kind = Scrub.Superblock_replica
                      in
                      let hdrk (f : Scrub.finding) =
                        match f.Scrub.kind with
                        | Scrub.Block_header _ -> true
                        | _ -> false
                      in
                      let spurious (f : Scrub.finding) =
                        match f.Scrub.kind with
                        | Scrub.Freelist_chain | Scrub.Root
                        | Scrub.Poisoned_payload _ ->
                            true
                        | _ -> false
                      in
                      if has prim <> sb0 then
                        fail "pool %d: scrub %s primary-superblock corruption"
                          i
                          (if sb0 then "missed" else "invented");
                      if has repl <> rep0 then
                        fail "pool %d: scrub %s replica corruption" i
                          (if rep0 then "missed" else "invented");
                      if has hdrk <> hdr0 then
                        fail "pool %d: scrub %s block-header corruption" i
                          (if hdr0 then "missed" else "invented");
                      if has spurious then
                        fail "pool %d: scrub reported a spurious finding" i;
                      (* Repair predictions: a corrupt primary is
                         restored iff the replica vouches; a corrupt
                         replica is rewritten iff the whole primary side
                         checks out. *)
                      let restored = r && sb0 && not rep0 in
                      let rep_fix = r && rep0 && (not sb0) && not hdr0 in
                      let prim_fixed =
                        has (fun f -> prim f && f.Scrub.repaired)
                      in
                      if prim_fixed <> restored then
                        fail "pool %d: primary repaired=%b, model says %b" i
                          prim_fixed restored;
                      let repl_fixed =
                        has (fun f -> repl f && f.Scrub.repaired)
                      in
                      if repl_fixed <> rep_fix then
                        fail "pool %d: replica repaired=%b, model says %b" i
                          repl_fixed rep_fix;
                      if restored then Hashtbl.reset sb_bad.(i);
                      if rep_fix then Hashtbl.reset rep_bad.(i);
                      let deg_now = (sb0 && not restored) || hdr0 in
                      if deg_now then degraded.(i) <- true
                      else if r then degraded.(i) <- false;
                      (* else: a degraded pool stays degraded even if the
                         damage was reverted bit-by-bit — only a repair
                         pass hands it back. *)
                      if (restored || rep_fix) && not degraded.(i) then
                        (* [Repaired] pools are re-sealed. *)
                        sealed.(i) <- true)
                    ids;
                  check_flags ();
                  for i = 0 to npools - 1 do
                    if walkable i then check_pool i
                  done
              | Crash ->
                  Pmop.crash pm;
                  for i = 0 to npools - 1 do
                    ignore (Pmop.open_pool pm (name i));
                    (* The verified attach degrades exactly the pools
                       whose primary superblock no longer checks out. *)
                    degraded.(i) <- Hashtbl.length sb_bad.(i) > 0
                  done;
                  check_flags ();
                  for i = 0 to npools - 1 do
                    if walkable i then check_pool i
                  done
              | Check ->
                  check_flags ();
                  for i = 0 to npools - 1 do
                    if walkable i then check_pool i
                  done);
      }
end

(* --- persistent containers ------------------------------------------------- *)

module I64_map = Map.Make (Int64)

(* One harness per Table III structure (plus the extended set), driven
   through the full runtime in HW mode with crash/re-attach cycles;
   the model is a Stdlib map. *)
module Structure_h = struct
  type op =
    | Insert of int * int64
    | Find of int
    | Remove of int
    | Iter
    | Check
    | Crash

  let keys = 120

  let key k = Int64.of_int (1009 + (k * 7))

  let pp = function
    | Insert (k, v) -> Fmt.str "insert %Ld=%Ld" (key k) v
    | Find k -> Fmt.str "find %Ld" (key k)
    | Remove k -> Fmt.str "remove %Ld" (key k)
    | Iter -> "iter"
    | Check -> "check-invariants"
    | Crash -> "crash+reattach"

  let gen rng =
    let k () = Random.State.int rng keys in
    match Random.State.int rng 100 with
    | n when n < 38 -> Insert (k (), Random.State.int64 rng 1_000_000L)
    | n when n < 62 -> Find (k ())
    | n when n < 78 -> Remove (k ())
    | n when n < 84 -> Iter
    | n when n < 94 -> Check
    | _ -> Crash

  let harness ~cfg (module M : Intf.ORDERED_MAP) =
    Engine.Packed
      {
        Engine.component = "structures:" ^ M.name;
        gen;
        pp;
        init =
          (fun ~seed:_ ->
            let rt = Runtime.create ~cfg ~mode:Runtime.Hw () in
            let pool = Runtime.create_pool rt ~name:"fuzz" ~size:(1 lsl 21) in
            let m = ref (M.create rt (Runtime.Pool_region pool)) in
            Runtime.set_root rt ~site ~pool (M.header !m);
            let model = ref I64_map.empty in
            fun op ->
              match op with
              | Insert (k, v) ->
                  M.insert !m ~key:(key k) ~value:v;
                  model := I64_map.add (key k) v !model
              | Find k ->
                  let sut = M.find !m (key k) in
                  let want = I64_map.find_opt (key k) !model in
                  if sut <> want then
                    fail "find %Ld: %a, model %a" (key k)
                      Fmt.(Dump.option int64)
                      sut
                      Fmt.(Dump.option int64)
                      want
              | Remove k ->
                  let sut = M.remove !m (key k) in
                  let want = I64_map.mem (key k) !model in
                  model := I64_map.remove (key k) !model;
                  if sut <> want then
                    fail "remove %Ld: %b, model %b" (key k) sut want
              | Iter ->
                  let acc = ref [] in
                  M.iter !m (fun ~key ~value -> acc := (key, value) :: !acc);
                  let got = List.sort compare !acc in
                  let want = I64_map.bindings !model in
                  if got <> want then
                    fail "iter: %d bindings, model %d (or contents differ)"
                      (List.length got) (List.length want)
              | Check ->
                  M.check_invariants !m;
                  if M.size !m <> I64_map.cardinal !model then
                    fail "size %d, model %d" (M.size !m)
                      (I64_map.cardinal !model)
              | Crash ->
                  Runtime.crash_and_restart rt;
                  ignore (Runtime.open_pool rt "fuzz");
                  let header = Runtime.get_root rt ~site ~pool in
                  m := M.attach rt header);
      }
end

(* --- cross-layer: SW vs HW pointer semantics -------------------------------- *)

(* Each op replays one corpus program under four configurations and
   checks (a) bit-identical outputs everywhere, and (b) that the
   [checks.*]/per-site telemetry agrees with [Comp.Inference]'s static
   classification: a site the inference resolved must never execute a
   dynamic check, and enabling the plan can only remove checks. *)
module Semantics_h = struct
  type op = Program of int

  let pp (Program i) =
    let name, _ = List.nth Corpus.all (i mod List.length Corpus.all) in
    Fmt.str "program %s" name

  let gen rng = Program (Random.State.int rng (List.length Corpus.all))

  let counter_value counters name =
    Option.value ~default:0 (List.assoc_opt name counters)

  let site_prefix = "site.minic."

  let run_in ~cfg ~mode ~persistent ?plan prog =
    Telemetry.recording @@ fun () ->
    let _, outcome = Interp.run_fresh ~cfg ?plan ~mode ~persistent prog in
    let counters = Telemetry.counters_snapshot () in
    let fired_sites =
      List.filter_map
        (fun (n, v) ->
          let pl = String.length site_prefix in
          if v > 0 && String.length n > pl && String.sub n 0 pl = site_prefix
          then int_of_string_opt (String.sub n pl (String.length n - pl))
          else None)
        counters
    in
    (outcome.Interp.output, counter_value counters "checks.dynamic", fired_sites)

  let harness ~cfg () =
    let run_in = run_in ~cfg in
    Engine.Packed
      {
        Engine.component = "semantics";
        gen;
        pp;
        init =
          (fun ~seed:_ ->
            fun (Program i) ->
             let name, prog =
               List.nth Corpus.all (i mod List.length Corpus.all)
             in
             let inference = Inference.infer prog in
             let plan = Inference.plan inference in
             let reference, _, _ =
               run_in ~mode:Runtime.Volatile ~persistent:false prog
             in
             let sw, sw_checks, sw_fired =
               run_in ~mode:Runtime.Sw ~persistent:true ~plan prog
             in
             let sw_noplan, sw_noplan_checks, _ =
               run_in ~mode:Runtime.Sw ~persistent:true prog
             in
             let hw, _, _ =
               run_in ~mode:Runtime.Hw ~persistent:true ~plan prog
             in
             if sw <> reference then
               fail "%s: SW output diverges from the volatile reference"
                 name;
             if hw <> reference then
               fail "%s: HW output diverges from the volatile reference"
                 name;
             if sw_noplan <> reference then
               fail
                 "%s: SW output without check elision diverges — the \
                  checks are not semantics-preserving"
                 name;
             List.iter
               (fun id ->
                 if plan id then
                   fail
                     "%s: site minic.%d is statically resolved but \
                      executed a dynamic check"
                     name id)
               sw_fired;
             if sw_checks > sw_noplan_checks then
               fail
                 "%s: the inference plan added dynamic checks (%d with \
                  plan, %d without)"
                 name sw_checks sw_noplan_checks);
      }
end

(* --- cross-layer: YCSB distribution statistics ------------------------------ *)

(* Gray's sampler maps u to rank 0 exactly when u*zeta_n < 1 and to
   rank 1 exactly when u*zeta_n < 1 + 0.5^theta, so those rank
   probabilities have closed forms; the empirical frequencies must land
   within a binomial confidence band.  "Latest" re-maps rank r to index
   n-1-r, so its most-recent index inherits rank 0's probability. *)
module Zipf_h = struct
  type op = Draw of int | Grow of int | Check

  let batch = 500
  let n0 = 300

  let pp = function
    | Draw s -> Fmt.str "draw %dx (salt %d)" batch s
    | Grow g -> Fmt.str "grow +%d" g
    | Check -> "check-frequencies"

  let gen rng =
    match Random.State.int rng 100 with
    | n when n < 70 -> Draw (Random.State.int rng 1_000_000)
    | n when n < 80 -> Grow (1 + Random.State.int rng 40)
    | _ -> Check

  let zeta n =
    let s = ref 0.0 in
    for i = 1 to n do
      s := !s +. (1.0 /. Float.pow (float_of_int i) Distribution.theta)
    done;
    !s

  let harness () =
    Engine.Packed
      {
        Engine.component = "zipf";
        gen;
        pp;
        init =
          (fun ~seed ->
            let draw_rng = Random.State.make [| 0x7a69; seed |] in
            let n = ref n0 in
            let zipf = Distribution.zipfian n0 in
            let latest = Distribution.latest n0 in
            let scrambled = Distribution.scrambled_zipfian n0 in
            let total = ref 0 in
            let z0 = ref 0 in
            let z1 = ref 0 in
            let l0 = ref 0 in
            let in_range what s =
              if s < 0 || s >= !n then
                fail "%s sample %d outside [0, %d)" what s !n
            in
            fun op ->
              match op with
              | Draw _ ->
                  for _ = 1 to batch do
                    let z = Distribution.sample zipf draw_rng in
                    in_range "zipfian" z;
                    if z = 0 then incr z0;
                    if z = 1 then incr z1;
                    let l = Distribution.sample latest draw_rng in
                    in_range "latest" l;
                    if l = !n - 1 then incr l0;
                    in_range "scrambled"
                      (Distribution.sample scrambled draw_rng)
                  done;
                  total := !total + batch
              | Grow g ->
                  for _ = 1 to g do
                    Distribution.grow zipf;
                    Distribution.grow latest;
                    Distribution.grow scrambled;
                    incr n
                  done;
                  if
                    Distribution.population zipf <> !n
                    || Distribution.population latest <> !n
                  then
                    fail "population %d after growth, model %d"
                      (Distribution.population zipf) !n;
                  (* frequencies below are per-population: restart *)
                  total := 0;
                  z0 := 0;
                  z1 := 0;
                  l0 := 0
              | Check ->
                  if !total >= 3000 then begin
                    let zn = zeta !n in
                    let expect what count p =
                      let freq = float_of_int count /. float_of_int !total in
                      let sigma =
                        sqrt (p *. (1.0 -. p) /. float_of_int !total)
                      in
                      let tol = (6.0 *. sigma) +. 0.004 in
                      if Float.abs (freq -. p) > tol then
                        fail
                          "%s frequency %.4f, closed form %.4f (tolerance \
                           %.4f over %d draws)"
                          what freq p tol !total
                    in
                    expect "zipfian rank-0" !z0 (1.0 /. zn);
                    expect "zipfian rank-1" !z1
                      (Float.pow 0.5 Distribution.theta /. zn);
                    expect "latest most-recent" !l0 (1.0 /. zn)
                  end);
      }
end

(* --- the multi-core machine against its sequential model ----------------- *)

(* Schedule enumeration over seeded interleavings: every op runs one
   complete contended episode (fresh machine, N cores hammering the
   shared Conc_counter/Conc_list) twice with the same scheduler seed
   and checks

     - determinism: both runs retire the identical per-core cycle and
       instruction counts and identical scheduler statistics;
     - the sequential model: final counter value and list contents are
       exactly what a serial execution produces (the structures are
       linearizable, so every interleaving must agree);
     - FliT quiescence: no in-flight writer marks survive the episode,
       and reader syncs split exactly into issued + elided flushes;
     - the per-core attribution-equals-cycles invariant. *)
module Conc_h = struct
  module Cluster = Nvml_runtime.Cluster
  module Cpu = Nvml_arch.Cpu
  module Flit = Nvml_structures.Flit
  module Conc_counter = Nvml_structures.Conc_counter
  module Conc_list = Nvml_structures.Conc_list
  module Conc_workload = Nvml_structures.Conc_workload

  type op = Episode of { sched_seed : int; cores : int; ops_per_core : int }

  let pp (Episode { sched_seed; cores; ops_per_core }) =
    Fmt.str "episode seed=%d cores=%d ops/core=%d" sched_seed cores
      ops_per_core

  let gen rng =
    Episode
      {
        sched_seed = Random.State.int rng 1_000_000;
        cores = 2 + Random.State.int rng 2;
        ops_per_core = 2 + Random.State.int rng 9;
      }

  type run_result = {
    value : int64;
    keys : int64 list;
    per_core : (int * int) list; (* (cycles, instrs) per core *)
    sched : Nvml_arch.Multicore.stats;
    pending : int;
    syncs : int * int; (* issued, elided *)
  }

  let run_episode ~cfg ~sched_seed ~cores ~ops_per_core =
    let rt = Runtime.create ~cfg ~mode:Runtime.Hw () in
    let pool = Runtime.create_pool rt ~name:"mc-conc" ~size:(1 lsl 22) in
    let s =
      Conc_workload.setup ~sched_seed ~cores ~ops_per_core rt ~pool
    in
    Conc_workload.run s;
    let cluster = s.Conc_workload.cluster in
    let counter = s.Conc_workload.counter in
    let list = s.Conc_workload.list in
    Array.iter
      (fun cpu ->
        let a = Cpu.attribution cpu in
        if Cpu.attribution_total a <> Cpu.cycles cpu then
          raise
            (Engine.Violation
               (Fmt.str "core attribution %d <> cycles %d"
                  (Cpu.attribution_total a) (Cpu.cycles cpu))))
      (Nvml_arch.Multicore.cores (Cluster.machine cluster));
    let primary = Cluster.primary cluster in
    let fc = Conc_counter.flit counter and fl = Conc_list.flit list in
    {
      value =
        Conc_counter.read (Conc_counter.handle counter primary ~core:0);
      keys =
        List.sort compare (Conc_list.recovered_keys primary list);
      per_core =
        Array.to_list
          (Array.map
             (fun cpu -> (Cpu.cycles cpu, (Cpu.snapshot cpu).Cpu.instrs))
             (Nvml_arch.Multicore.cores (Cluster.machine cluster)));
      sched = Cluster.stats cluster;
      pending = Flit.pending fc + Flit.pending fl;
      syncs =
        ( Flit.issued fc + Flit.issued fl,
          Flit.elided fc + Flit.elided fl );
    }

  let harness ~cfg () =
    let run_episode = run_episode ~cfg in
    Engine.Packed
      {
        Engine.component = "conc";
        gen;
        pp;
        init =
          (fun ~seed:_ ->
            fun (Episode { sched_seed; cores; ops_per_core }) ->
              let a = run_episode ~sched_seed ~cores ~ops_per_core in
              let b = run_episode ~sched_seed ~cores ~ops_per_core in
              if a <> b then
                fail "same-seed episodes diverge (seed %d)" sched_seed;
              let total = cores * ops_per_core in
              if a.value <> Int64.of_int total then
                fail "counter %Ld, model %d" a.value total;
              let expected =
                List.sort compare
                  (List.concat_map
                     (fun c ->
                       List.init ops_per_core (fun j ->
                           Conc_workload.key ~core:c ~op:j))
                     (List.init cores Fun.id))
              in
              if a.keys <> expected then
                fail "list contents diverge from the sequential model";
              if a.pending <> 0 then
                fail "%d FliT marks still pending at quiescence" a.pending;
              (* Cores read every [read_every]-th op, so an episode
                 shorter than that syncs nothing. *)
              let issued, elided = a.syncs in
              let reads = ops_per_core >= Conc_workload.read_every in
              let synced = if reads then elided > 0 else issued + elided = 0 in
              if issued < 0 || not synced then
                fail "reader syncs: %d issued, %d elided" issued elided;
              if a.sched.Nvml_arch.Multicore.steps = 0 && cores > 1 then
                fail "scheduler took no steps on a %d-core episode" cores);
      }
end

(* --- serving front cache -------------------------------------------------- *)

(* Model: the cached entries most recently used first, each in its
   slot.  A new key takes the next unused slot, or the LRU entry's once
   all are used (writing it back first if dirty); a flush writes the
   dirty entries back in ascending slot order.  Of the keys 1 .. 4 x
   capacity + 4, every other one starts in the persistent side.  Gets
   and puts pick a key by a selector resolved against the model, so
   every kind of hit, miss, put and victim occurs.  After every op the
   get's result, the write-backs and the stats must equal the model's,
   and after a scan flush the persistent side must hold the latest
   value of every cached key.  Victims are counted in the
   fuzz.fcache.{clean,dirty}_victims counters. *)
module Fcache_h = struct
  module Serving = Nvml_kvstore.Serving
  module Fcache = Serving.Fcache

  type op =
    | Get_cached of int (* selector; an uncached key when none is cached *)
    | Get_stored of int (* an uncached key the persistent side holds *)
    | Get_absent (* a key never stored: the miss finds nothing *)
    | Put_uncached of int * int64
    | Put_clean of int * int64 (* a clean cached key, else an uncached one *)
    | Put_dirty of int * int64
    | Scan_flush (* counts a scan flush, then drains *)

  let c_clean_victims = Telemetry.counter "fuzz.fcache.clean_victims"
  let c_dirty_victims = Telemetry.counter "fuzz.fcache.dirty_victims"

  let pp = function
    | Get_cached i -> Fmt.str "get cached #%d" i
    | Get_stored i -> Fmt.str "get stored #%d" i
    | Get_absent -> "get absent"
    | Put_uncached (i, v) -> Fmt.str "put uncached #%d %Ld" i v
    | Put_clean (i, v) -> Fmt.str "put clean #%d %Ld" i v
    | Put_dirty (i, v) -> Fmt.str "put dirty #%d %Ld" i v
    | Scan_flush -> "scan-flush"

  (* One flush per 6 x capacity ops, so that a dirty entry can age out
     of a full cache between flushes.  Selectors exceed the 260 keys of
     the largest cache tested. *)
  let gen ~capacity rng =
    let sel () = Random.State.int rng 1024 in
    let n = Random.State.int rng ((6 * capacity) + 1) in
    if n = 6 * capacity then Scan_flush
    else
      let v = Random.State.int64 rng 1_000_000L in
      match n mod 6 with
      | 0 -> Get_cached (sel ())
      | 1 -> Get_stored (sel ())
      | 2 -> Get_absent
      | 3 -> Put_uncached (sel (), v)
      | 4 -> Put_clean (sel (), v)
      | _ -> Put_dirty (sel (), v)

  type entry = { slot : int; key : int64; value : int64; dirty : bool }

  let pp_stats ppf (c : Serving.cache_stats) =
    Fmt.pf ppf "%d/%d/%d/%d/%d" c.hits c.misses c.writebacks c.evictions
      c.scan_flushes

  let harness ~cfg ~capacity () =
    Engine.Packed
      {
        Engine.component = "fcache";
        gen = gen ~capacity;
        pp;
        init =
          (fun ~seed:_ ->
            let keys =
              Array.init ((4 * capacity) + 4) (fun i -> Int64.of_int (i + 1))
            in
            (* The persistent side, and the write-backs it received and
               the model made during the current op, newest first.  The
               model reads the persistent side too: a write-back the
               model did not make fails the op that made it. *)
            let store = Hashtbl.create 64 and log = ref [] and mlog = ref [] in
            Array.iteri
              (fun i k ->
                if i mod 2 = 0 then Hashtbl.replace store k (Int64.of_int i))
              keys;
            let write_back ~key ~value =
              Hashtbl.replace store key value;
              log := (key, value) :: !log
            in
            let latest = Hashtbl.copy store and absent = ref 1_000_000L in
            let rt = Runtime.create ~cfg ~mode:Runtime.Hw () in
            let fc = Fcache.create rt capacity ~write_back in
            let entries = ref [] in
            let stats =
              ref
                Serving.
                  { hits = 0; misses = 0; writebacks = 0; evictions = 0;
                    scan_flushes = 0 }
            in
            let write_back_entry e =
              mlog := (e.key, e.value) :: !mlog;
              stats := { !stats with writebacks = !stats.writebacks + 1 }
            in
            let install key value ~dirty =
              match List.partition (fun e -> e.key = key) !entries with
              | e :: _, rest ->
                  entries := { e with value; dirty = e.dirty || dirty } :: rest
              | [], rest ->
                  let slot =
                    if List.length rest < capacity then List.length rest
                    else begin
                      let victim = List.nth rest (capacity - 1) in
                      Telemetry.incr
                        (if victim.dirty then c_dirty_victims
                         else c_clean_victims);
                      if victim.dirty then write_back_entry victim;
                      stats := { !stats with evictions = !stats.evictions + 1 };
                      victim.slot
                    end
                  in
                  entries :=
                    { slot; key; value; dirty }
                    :: List.filter (fun e -> e.slot <> slot) rest
            in
            let cached p =
              List.filter_map (fun e -> if p e then Some e.key else None) !entries
            in
            (* The first uncached key satisfying [p] at or after key [i],
               cyclically: there are always more such keys than slots. *)
            let rec uncached p i =
              let k = keys.(i mod Array.length keys) in
              if p k && not (List.exists (fun e -> e.key = k) !entries) then k
              else uncached p (i + 1)
            in
            let any _ = true in
            let pick l i =
              if l = [] then uncached any i else List.nth l (i mod List.length l)
            in
            let get key =
              let got = Fcache.get fc ~find:(Hashtbl.find_opt store) key in
              let want =
                match List.find_opt (fun e -> e.key = key) !entries with
                | Some e ->
                    stats := { !stats with hits = !stats.hits + 1 };
                    install key e.value ~dirty:false;
                    Some e.value
                | None ->
                    stats := { !stats with misses = !stats.misses + 1 };
                    let r = Hashtbl.find_opt store key in
                    Option.iter (fun v -> install key v ~dirty:false) r;
                    r
              in
              let pp = Fmt.(Dump.option int64) in
              if got <> want then fail "get %Ld: %a, model %a" key pp got pp want
            in
            let put key value =
              Hashtbl.replace latest key value;
              Fcache.put fc ~key ~value;
              install key value ~dirty:true
            in
            fun op ->
              (match op with
              | Get_cached i -> get (pick (cached any) i)
              | Get_stored i -> get (uncached (Hashtbl.mem store) i)
              | Get_absent ->
                  absent := Int64.succ !absent;
                  get !absent
              | Put_uncached (i, v) -> put (uncached any i) v
              | Put_clean (i, v) -> put (pick (cached (fun e -> not e.dirty)) i) v
              | Put_dirty (i, v) -> put (pick (cached (fun e -> e.dirty)) i) v
              | Scan_flush ->
                  Fcache.scan_flush fc;
                  stats := { !stats with scan_flushes = !stats.scan_flushes + 1 };
                  List.sort (fun a b -> compare a.slot b.slot) !entries
                  |> List.iter (fun e -> if e.dirty then write_back_entry e);
                  entries := List.map (fun e -> { e with dirty = false }) !entries;
                  List.iter
                    (fun k ->
                      if Hashtbl.find_opt latest k <> Hashtbl.find_opt store k
                      then fail "key %Ld is stale after a scan flush" k)
                    (cached any));
              let pp = Fmt.(Dump.list (Dump.pair int64 int64)) in
              if !log <> !mlog then
                fail "write-backs %a, model %a" pp (List.rev !log) pp
                  (List.rev !mlog);
              log := [];
              mlog := [];
              if Fcache.stats fc <> !stats then
                fail "stats %a, model %a" pp_stats (Fcache.stats fc) pp_stats
                  !stats);
      }
end
