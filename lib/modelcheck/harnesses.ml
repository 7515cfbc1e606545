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

(* Model: the resident (pool, base, size) entries most-recently-used
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
    let pools = List.map (fun (_, _, p, _) -> p) dump in
    if List.length pools <> List.length (List.sort_uniq compare pools) then
      fail "valb holds duplicate ways for one pool: %a"
        Fmt.(Dump.list int) pools;
    let by_recency =
      List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a) dump
      |> List.map (fun (b, s, p, _) -> (p, b, s))
    in
    if by_recency <> !model then
      fail "valb state %a, model %a"
        Fmt.(Dump.list (Dump.pair int (Dump.pair int64 int64)))
        (List.map (fun (p, b, s) -> (p, (b, s))) by_recency)
        Fmt.(Dump.list (Dump.pair int (Dump.pair int64 int64)))
        (List.map (fun (p, b, s) -> (p, (b, s))) !model)

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
                      (fun (_, b, s) -> va >= b && va < Int64.add b s)
                      !model
                  in
                  (match expected with
                  | Some ((p', _, _) as e) ->
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
                    List.filter (fun (p', _, _) -> p' <> p) !model
                  in
                  model :=
                    (p, b, size)
                    :: (if List.length rest = entries then
                          List.filteri (fun i _ -> i < entries - 1) rest
                        else rest)
              | Invalidate_pool p ->
                  Valb.invalidate_pool v p;
                  model := List.filter (fun (p', _, _) -> p' <> p) !model
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
end

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
              | Alloc n -> (
                  let sut =
                    match Freelist.alloc a (Int64.of_int n) with
                    | p -> Some p
                    | exception Freelist.Out_of_memory -> None
                  in
                  let want =
                    match Fl_model.alloc model (Int64.of_int n) with
                    | p -> Some p
                    | exception Fl_model.No_fit -> None
                  in
                  match (sut, want) with
                  | None, None -> ()
                  | Some p, Some q when Int64.equal p q -> ()
                  | Some p, Some q ->
                      fail "alloc %d: payload %Ld, model %Ld" n p q
                  | Some _, None ->
                      fail "alloc %d: model is out of memory, allocator isn't"
                        n
                  | None, Some _ ->
                      fail "alloc %d: out of memory, but the model fits" n)
              | Free i -> (
                  match Fl_model.live model with
                  | [] -> ()
                  | live ->
                      let payload, _ =
                        List.nth live (i mod List.length live)
                      in
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
              | Scribble (i, w) -> (
                  (* Application bytes inside a live payload: arbitrary,
                     and none of the allocator's business. *)
                  match Fl_model.live model with
                  | [] -> ()
                  | live ->
                      let payload, size =
                        List.nth live (i mod List.length live)
                      in
                      let payload_words =
                        Int64.to_int (Int64.div size 8L) - 2
                      in
                      if payload_words > 0 then
                        Hashtbl.replace words
                          (Int64.add payload
                             (Int64.of_int
                                (8 * (i mod payload_words))))
                          w)
              | Check -> check a model);
      }
end

(* --- the pool manager (freelists + crash/reopen) -------------------------- *)

module Pmop_h = struct
  type op =
    | Pmalloc of int * int (* pool index, size *)
    | Pfree of int * int (* pool index, live-list selector *)
    | Set_root of int * int64
    | Crash
    | Check

  let npools = 3
  let pool_size = 65536

  let pp = function
    | Pmalloc (p, n) -> Fmt.str "pmalloc pool=%d %d" p n
    | Pfree (p, i) -> Fmt.str "pfree pool=%d #%d" p i
    | Set_root (p, v) -> Fmt.str "set-root pool=%d 0x%Lx" p v
    | Crash -> "crash+reopen"
    | Check -> "check-invariants"

  let gen rng =
    let pool () = Random.State.int rng npools in
    match Random.State.int rng 100 with
    | n when n < 40 -> Pmalloc (pool (), 1 + Random.State.int rng 3000)
    | n when n < 65 -> Pfree (pool (), Random.State.int rng 64)
    | n when n < 78 ->
        Set_root (pool (), Random.State.int64 rng Int64.max_int)
    | n when n < 86 -> Crash
    | _ -> Check

  let harness () =
    Engine.Packed
      {
        Engine.component = "pmop";
        gen;
        pp;
        init =
          (fun ~seed:_ ->
            let pm = Pmop.create (Mem.create ()) in
            let name i = Fmt.str "fz%d" i in
            let ids =
              Array.init npools (fun i ->
                  Pmop.create_pool pm ~name:(name i) ~size:pool_size)
            in
            let models =
              Array.init npools (fun _ ->
                  Fl_model.create (Int64.of_int pool_size))
            in
            let roots = Array.make npools 0L in
            let check_pool i =
              ignore (Pmop.check_pool_invariants pm ~pool:ids.(i));
              let sut = Pmop.allocated_bytes pm ~pool:ids.(i) in
              let want = Fl_model.allocated_bytes models.(i) in
              if not (Int64.equal sut want) then
                fail "pool %d: allocated %Ld bytes, model %Ld" i sut want;
              let root = Pmop.get_root pm ~pool:ids.(i) in
              if not (Int64.equal root roots.(i)) then
                fail "pool %d: root 0x%Lx, model 0x%Lx" i root roots.(i)
            in
            fun op ->
              match op with
              | Pmalloc (p, n) -> (
                  let sut =
                    match Pmop.pmalloc pm ~pool:ids.(p) n with
                    | ptr -> Some (Ptr.offset_of ptr)
                    | exception Freelist.Out_of_memory -> None
                  in
                  let want =
                    match Fl_model.alloc models.(p) (Int64.of_int n) with
                    | off -> Some off
                    | exception Fl_model.No_fit -> None
                  in
                  match (sut, want) with
                  | None, None -> ()
                  | Some o, Some w when Int64.equal o w -> ()
                  | Some o, Some w ->
                      fail "pmalloc pool %d: offset %Ld, model %Ld" p o w
                  | Some _, None ->
                      fail "pmalloc pool %d: model OOM, allocator isn't" p
                  | None, Some _ ->
                      fail "pmalloc pool %d: OOM, but the model fits" p)
              | Pfree (p, i) -> (
                  match Fl_model.live models.(p) with
                  | [] -> ()
                  | live ->
                      let payload, _ =
                        List.nth live (i mod List.length live)
                      in
                      Pmop.pfree pm
                        (Ptr.make_relative ~pool:ids.(p) ~offset:payload);
                      Fl_model.free models.(p) payload;
                      check_pool p)
              | Set_root (p, v) ->
                  Pmop.set_root pm ~pool:ids.(p) v;
                  roots.(p) <- v
              | Crash ->
                  (* Power failure: mappings vanish, NVM frames survive;
                     every pool must re-open with its heap intact. *)
                  Pmop.crash pm;
                  for i = 0 to npools - 1 do
                    ignore (Pmop.open_pool pm (name i))
                  done;
                  for i = 0 to npools - 1 do
                    check_pool i
                  done
              | Check ->
                  for i = 0 to npools - 1 do
                    check_pool i
                  done);
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
            let name i = Fmt.str "mz%d" i in
            let ids =
              Array.init npools (fun i ->
                  Pmop.create_pool pm ~name:(name i) ~size:pool_size)
            in
            let models =
              Array.init npools (fun _ ->
                  Fl_model.create (Int64.of_int pool_size))
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
              ignore (Pmop.check_pool_invariants pm ~pool:ids.(i));
              let sut = Pmop.allocated_bytes pm ~pool:ids.(i) in
              let want = Fl_model.allocated_bytes models.(i) in
              if not (Int64.equal sut want) then
                fail "pool %d: allocated %Ld bytes, model %Ld" i sut want;
              let root = Pmop.get_root pm ~pool:ids.(i) in
              if not (Int64.equal root roots.(i)) then
                fail "pool %d: root 0x%Lx, model 0x%Lx" i root roots.(i)
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
                  else begin
                    let sut =
                      match Pmop.pmalloc pm ~pool:ids.(p) n with
                      | ptr -> Some (Ptr.offset_of ptr)
                      | exception Freelist.Out_of_memory -> None
                    in
                    let want =
                      match Fl_model.alloc models.(p) (Int64.of_int n) with
                      | off -> Some off
                      | exception Fl_model.No_fit -> None
                    in
                    match (sut, want) with
                    | None, None -> ()
                    | Some o, Some w when Int64.equal o w ->
                        sealed.(p) <- false
                    | Some o, Some w ->
                        fail "pmalloc pool %d: offset %Ld, model %Ld" p o w
                    | Some _, None ->
                        fail "pmalloc pool %d: model OOM, allocator isn't" p
                    | None, Some _ ->
                        fail "pmalloc pool %d: OOM, but the model fits" p
                  end
              | Pfree (p, i) -> (
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
                    match Fl_model.live models.(p) with
                    | [] -> ()
                    | live ->
                        let payload, _ =
                          List.nth live (i mod List.length live)
                        in
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
              | Flip_header (p, i, b) -> (
                  match Fl_model.live models.(p) with
                  | [] -> ()
                  | live ->
                      let payload, _ =
                        List.nth live (i mod List.length live)
                      in
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
    Telemetry.run_with_sink (Telemetry.fresh_sink ()) @@ fun () ->
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
             let was = Telemetry.enabled () in
             Telemetry.set_enabled true;
             Fun.protect
               ~finally:(fun () -> Telemetry.set_enabled was)
               (fun () ->
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
                     name sw_checks sw_noplan_checks));
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
              let fail fmt = Fmt.kstr (fun m -> raise (Engine.Violation m)) fmt in
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
              let issued, elided = a.syncs in
              if issued < 0 || elided <= 0 then
                fail "reader syncs: %d issued, %d elided" issued elided;
              if a.sched.Nvml_arch.Multicore.steps = 0 && cores > 1 then
                fail "scheduler took no steps on a %d-core episode" cores);
      }
end
