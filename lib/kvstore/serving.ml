(* The serving engine: the Section VII harness grown to production
   shape.  Records are sharded across many pools by key hash — each
   shard is an independent simulation cell with its own runtime, pool,
   allocator and superblock, so shards are share-nothing and a parallel
   runner ([Pool.run] from bench) produces results byte-identical to a
   sequential one.  A batching front-end amortizes runtime entry across
   a batch of requests, and an optional bounded-LRU DRAM front cache
   absorbs reads and write-backs dirty entries to NVM in the style of
   NVCache: hits never touch the persistent structure, evictions and
   scans flush dirty values back, and a final drain before detach makes
   the pool contents identical to a cache-disabled run. *)

module Layout = Nvml_simmem.Layout
module Mem = Nvml_simmem.Mem
module Cpu = Nvml_arch.Cpu
module Config = Nvml_arch.Config
module Runtime = Nvml_runtime.Runtime
module Site = Nvml_runtime.Site
module Oplat = Nvml_runtime.Oplat
module Intf = Nvml_structures.Intf
module Registry = Nvml_structures.Registry
module Workload = Nvml_ycsb.Workload
module Distribution = Nvml_ycsb.Distribution
module Telemetry = Nvml_telemetry.Telemetry

let s_driver = Site.make ~static:true "serving.driver"
let s_cache = Site.make ~static:true "serving.cache"

(* Cost model for the driver shell around the library calls: entering
   the runtime (argument marshalling, checkpoint bookkeeping) is paid
   once per batch; each request pays a small dispatch cost on top of
   its library work. *)
let batch_entry_instrs = 40
let op_dispatch_instrs = 4

(* The simulated clock, for converting deterministic cycle counts into
   an ops/sec figure: Config.default models DRAM at 120 cycles = 45 ns,
   i.e. a ~2.67 GHz core. *)
let clock_hz = 120.0 /. 45e-9

type config = {
  structure : string;
  mode : Runtime.mode;
  spec : Workload.spec;
  shards : int;
  batch : int;
  front_cache : int; (* total cache entries across all shards; 0 = off *)
  cfg : Config.t;
}

let default_config ?(structure = "Hash") ?(mode = Runtime.Hw)
    ?(cfg = Config.default) ?(shards = 1) ?(batch = 1) ?(front_cache = 0) spec
    =
  { structure; mode; spec; shards; batch; front_cache; cfg }

type cache_stats = {
  hits : int;
  misses : int;
  writebacks : int;
  evictions : int;
  scan_flushes : int;
}

let zero_cache_stats =
  { hits = 0; misses = 0; writebacks = 0; evictions = 0; scan_flushes = 0 }

let add_cache_stats a b =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    writebacks = a.writebacks + b.writebacks;
    evictions = a.evictions + b.evictions;
    scan_flushes = a.scan_flushes + b.scan_flushes;
  }

let hit_rate c =
  let total = c.hits + c.misses in
  if total = 0 then 0.0 else float_of_int c.hits /. float_of_int total

type shard = {
  index : int;
  records : int; (* records loaded into this shard *)
  ops : int; (* requests dispatched to this shard *)
  size : int; (* final structure size *)
  found : int;
  missing : int;
  load : Cpu.snapshot;
  run : Cpu.snapshot;
  cache : cache_stats;
  digest : int64; (* order-independent content digest *)
  oplat : Oplat.t;
}

type t = {
  structure : string;
  mode : Runtime.mode;
  spec : Workload.spec;
  shards : int;
  batch : int;
  front_cache : int;
  per_shard : shard list; (* in shard-index order *)
  records : int;
  ops : int; (* total requests (scan sub-gets count individually) *)
  found : int;
  missing : int;
  size : int;
  load_cycles_max : int;
  run_cycles_max : int; (* service time: shards run in parallel *)
  run_cycles_total : int;
  cache : cache_stats;
  digest : int64;
  oplat : Oplat.t; (* merged across shards, in shard order *)
}

let ops_per_sec t =
  if t.run_cycles_max = 0 then 0.0
  else float_of_int t.ops /. (float_of_int t.run_cycles_max /. clock_hz)

(* --- sharding ----------------------------------------------------------- *)

(* Record keys are already splitmix-scrambled; re-scramble before
   taking the residue so the shard function is decorrelated from any
   other use of the key bits. *)
let shard_of_key ~shards key =
  if shards <= 1 then 0
  else
    Int64.to_int
      (Int64.rem
         (Int64.logand (Distribution.scramble key) Int64.max_int)
         (Int64.of_int shards))

(* Growable int buffer for the per-shard op streams: two words per
   request — [(record_index lsl 3) lor tag] and an auxiliary word —
   instead of a materialized constructor list, which at tens of
   millions of ops would dominate the heap. *)
module Buf = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 64 0; len = 0 }

  let push b x =
    if b.len = Array.length b.a then begin
      let a' = Array.make (2 * Array.length b.a) 0 in
      Array.blit b.a 0 a' 0 b.len;
      b.a <- a'
    end;
    b.a.(b.len) <- x;
    b.len <- b.len + 1

  let contents b = Array.sub b.a 0 b.len
end

(* Request tags, the low three bits of a request's first word.  A
   point op's aux word is its value or delta. *)
let tag_read = 0
let tag_update = 1
let tag_insert = 2
let tag_scan = 3
let tag_rmw = 4

(* The point op of a request with tag [tag] (not [tag_scan]). *)
let point_op tag i aux : Workload.idx_op =
  if tag = tag_read then IRead i
  else if tag = tag_update then IUpdate (i, aux)
  else if tag = tag_insert then IInsert (i, aux)
  else IRmw (i, aux)

(* Partition the load population and the operation stream across
   shards.  Scans become per-shard sub-gets; the first sub-get a scan
   sends to a shard carries a flush flag (aux bit 0) so the shard's
   front cache writes dirty entries back once per scan before the scan
   reads around it. *)
let partition (c : config) =
  let shards = c.shards in
  let loads = Array.init shards (fun _ -> Buf.create ()) in
  for i = 0 to c.spec.Workload.record_count - 1 do
    Buf.push loads.(shard_of_key ~shards (Workload.key_of_index i)) i
  done;
  let ops = Array.init shards (fun _ -> Buf.create ()) in
  let push_op s tag idx aux =
    Buf.push ops.(s) ((idx lsl 3) lor tag);
    Buf.push ops.(s) aux
  in
  let shard_of_index i = shard_of_key ~shards (Workload.key_of_index i) in
  let scan_mark = Array.make shards (-1) in
  let scan_id = ref 0 in
  Workload.iter_idx_ops c.spec (fun iop ->
      match iop with
      | Workload.IRead i -> push_op (shard_of_index i) tag_read i 0
      | Workload.IUpdate (i, v) -> push_op (shard_of_index i) tag_update i v
      | Workload.IInsert (i, v) -> push_op (shard_of_index i) tag_insert i v
      | Workload.IRmw (i, v) -> push_op (shard_of_index i) tag_rmw i v
      | Workload.IScan (start, len) ->
          incr scan_id;
          for j = start to start + len - 1 do
            let s = shard_of_index j in
            let flush =
              if scan_mark.(s) <> !scan_id then begin
                scan_mark.(s) <- !scan_id;
                1
              end
              else 0
            in
            push_op s tag_scan j flush
          done);
  ( Array.map Buf.contents loads,
    Array.map Buf.contents ops )

(* --- the DRAM front cache ------------------------------------------------ *)

(* A bounded LRU write-back cache in the driver's volatile memory.
   Entry values are mirrored into a simulated-DRAM slab so probes and
   fills are charged DRAM accesses in the timing model; the index
   structure itself is host-side bookkeeping (hash table + intrusive
   LRU list over slots) charged as instructions. *)
module Fcache = struct
  (* Key -> slot index, hashed without the polymorphic [Hashtbl.hash];
     never iterated, so bucket order cannot reach an output. *)
  module Keys = Hashtbl.Make (struct
    type t = int64

    let equal = Int64.equal

    let hash k =
      let h = Int64.to_int k * 0x2545F4914F6CDD1D in
      h lxor (h lsr 29)
  end)

  type t = {
    cap : int;
    rt : Runtime.t;
    write_back : key:int64 -> value:int64 -> unit; (* to the structure *)
    slab : int64; (* simulated DRAM backing the value slots *)
    tbl : int Keys.t; (* key -> slot *)
    keys : int64 array;
    vals : int64 array;
    (* The dirty-slot index: the dirty slots, unordered, in
       [dirty_slots.(0 .. n_dirty - 1)], and each slot's position there
       in [dirty_pos] (-1 when clean), so a flush visits only them. *)
    dirty_slots : int array;
    dirty_pos : int array;
    mutable n_dirty : int;
    prev : int array;
    next : int array;
    mutable head : int; (* MRU; -1 when empty *)
    mutable tail : int; (* LRU *)
    mutable size : int;
    mutable hits : int;
    mutable misses : int;
    mutable writebacks : int;
    mutable evictions : int;
    mutable scan_flushes : int;
  }

  let create rt cap ~write_back =
    if cap < 1 then invalid_arg "Fcache.create: capacity must be >= 1";
    {
      cap;
      rt;
      write_back;
      slab = Mem.map_fresh (Runtime.mem rt) Layout.Dram (cap * 8);
      tbl = Keys.create (2 * cap);
      keys = Array.make cap 0L;
      vals = Array.make cap 0L;
      dirty_slots = Array.make cap 0;
      dirty_pos = Array.make cap (-1);
      n_dirty = 0;
      prev = Array.make cap (-1);
      next = Array.make cap (-1);
      head = -1;
      tail = -1;
      size = 0;
      hits = 0;
      misses = 0;
      writebacks = 0;
      evictions = 0;
      scan_flushes = 0;
    }

  let stats t =
    {
      hits = t.hits;
      misses = t.misses;
      writebacks = t.writebacks;
      evictions = t.evictions;
      scan_flushes = t.scan_flushes;
    }

  (* Intrusive LRU list over slots. *)
  let unlink t slot =
    let p = t.prev.(slot) and n = t.next.(slot) in
    if p >= 0 then t.next.(p) <- n else t.head <- n;
    if n >= 0 then t.prev.(n) <- p else t.tail <- p

  let push_front t slot =
    t.prev.(slot) <- -1;
    t.next.(slot) <- t.head;
    if t.head >= 0 then t.prev.(t.head) <- slot else t.tail <- slot;
    t.head <- slot

  let touch t slot =
    if t.head <> slot then begin
      unlink t slot;
      push_front t slot
    end

  let slot_load t slot =
    ignore (Runtime.load_word t.rt ~site:s_cache t.slab ~off:(slot * 8))

  let slot_store t slot v =
    Runtime.store_word t.rt ~site:s_cache t.slab ~off:(slot * 8) v

  let mark_dirty t slot =
    if t.dirty_pos.(slot) < 0 then begin
      t.dirty_pos.(slot) <- t.n_dirty;
      t.dirty_slots.(t.n_dirty) <- slot;
      t.n_dirty <- t.n_dirty + 1
    end

  (* Drop a dirty slot from the index; the last entry takes its place. *)
  let mark_clean t slot =
    let p = t.dirty_pos.(slot) and last = t.n_dirty - 1 in
    let moved = t.dirty_slots.(last) in
    t.dirty_slots.(p) <- moved;
    t.dirty_pos.(moved) <- p;
    t.dirty_pos.(slot) <- -1;
    t.n_dirty <- last

  (* Write one dirty slot back to the persistent structure. *)
  let write_back_slot t slot =
    slot_load t slot;
    t.write_back ~key:t.keys.(slot) ~value:t.vals.(slot);
    t.writebacks <- t.writebacks + 1

  (* Install [key -> v] in the cache, evicting (and writing back) the
     LRU victim when full. *)
  let install t key v ~dirty =
    Runtime.instr t.rt 2;
    match Keys.find t.tbl key with
    | slot ->
        t.vals.(slot) <- v;
        if dirty then mark_dirty t slot;
        slot_store t slot v;
        touch t slot
    | exception Not_found ->
        let slot =
          if t.size < t.cap then begin
            let s = t.size in
            t.size <- t.size + 1;
            s
          end
          else begin
            let victim = t.tail in
            if t.dirty_pos.(victim) >= 0 then begin
              mark_clean t victim;
              write_back_slot t victim
            end;
            Keys.remove t.tbl t.keys.(victim);
            unlink t victim;
            t.evictions <- t.evictions + 1;
            victim
          end
        in
        t.keys.(slot) <- key;
        t.vals.(slot) <- v;
        if dirty then mark_dirty t slot;
        Keys.replace t.tbl key slot;
        push_front t slot;
        slot_store t slot v

  (* Serve a read: probe the cache, fall back to [find] and install the
     result clean. *)
  let get t ~find key =
    Runtime.instr t.rt 2;
    match Keys.find t.tbl key with
    | slot ->
        slot_load t slot;
        touch t slot;
        t.hits <- t.hits + 1;
        Some t.vals.(slot)
    | exception Not_found ->
        t.misses <- t.misses + 1;
        let r = find key in
        (match r with
        | Some v -> install t key v ~dirty:false
        | None -> ());
        r

  let put t ~key ~value = install t key value ~dirty:true

  (* In-place heapsort of [a.(0 .. n-1)]: [Array.sort] cannot sort a
     prefix.  Module-level, so a flush allocates no closure. *)
  let rec sift (a : int array) i n =
    let l = (2 * i) + 1 in
    if l < n then begin
      let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
      let x = a.(i) in
      if a.(c) > x then begin
        a.(i) <- a.(c);
        a.(c) <- x;
        sift a c n
      end
    end

  let sort_prefix (a : int array) n =
    for i = (n / 2) - 1 downto 0 do
      sift a i n
    done;
    for last = n - 1 downto 1 do
      let x = a.(0) in
      a.(0) <- a.(last);
      a.(last) <- x;
      sift a 0 last
    done

  (* Flush every dirty entry and empty the index.  Entries go back in
     ascending slot order, whatever order they were dirtied in: a
     write-back of a new key allocates in the pool, so the order fixes
     the persistent layout. *)
  let drain t =
    let n = t.n_dirty in
    sort_prefix t.dirty_slots n;
    for i = 0 to n - 1 do
      let slot = t.dirty_slots.(i) in
      t.dirty_pos.(slot) <- -1;
      write_back_slot t slot
    done;
    t.n_dirty <- 0

  let scan_flush t =
    t.scan_flushes <- t.scan_flushes + 1;
    drain t
end

(* --- one shard ----------------------------------------------------------- *)

(* Order-independent digest of the structure contents: write-back
   reorders NVM allocations between cache and no-cache runs (and hash
   iteration order with them), so the contents check must not depend on
   iteration or allocation order.  Summing a scrambled per-entry hash
   is commutative and keeps collisions vanishingly unlikely. *)
let entry_hash ~key ~value =
  Distribution.scramble (Int64.logxor key (Distribution.scramble value))

let run_shard (c : config) (module M : Intf.ORDERED_MAP) ~shard
    ~(loads : int array) ~(ops : int array) () : shard =
  let rt = Runtime.create ~cfg:c.cfg ~mode:c.mode () in
  let region =
    Harness.region_for ~name:(Printf.sprintf "kv.shard%02d" shard) rt c.mode
  in
  let m = M.create rt region in
  let n_ops = Array.length ops / 2 in
  let found = ref 0 and missing = ref 0 and cache = ref zero_cache_stats in
  let count r =
    incr (if Option.is_some r then found else missing);
    r
  in
  let r =
    Harness.measure rt ~benchmark:M.name
      ~cell:(Printf.sprintf "serving/%s/shard%02d" M.name shard)
      ~records:(Array.length loads) ~ops:n_ops
      ~load:(fun () ->
        Array.iter (Workload.load_record ~insert:(M.insert m)) loads)
      ~run:(fun step ->
        (* Stage the request keys, then map the cache, after the load:
           moving either mapping would move frames and cycle counts. *)
        let key_buf = Harness.stage_keys rt n_ops (fun j -> ops.(2 * j) lsr 3) in
        let fc =
          if c.front_cache = 0 then None
          else Some (Fcache.create rt (c.front_cache / c.shards) ~write_back:(M.insert m))
        in
        let get, insert =
          match fc with
          | Some fc -> (Fcache.get fc ~find:(M.find m), Fcache.put fc)
          | None -> (M.find m, M.insert m)
        in
        let find k = count (get k) in
        for j = 0 to n_ops - 1 do
          (* Runtime entry and checkpoint bookkeeping, paid once per
             batch, outside the op brackets. *)
          if j mod c.batch = 0 then Runtime.instr rt batch_entry_instrs;
          step (fun ol ->
              let key = Runtime.load_word rt ~site:s_driver key_buf ~off:(j * 8) in
              Runtime.instr rt op_dispatch_instrs;
              Oplat.mark_driver ol (Runtime.cpu rt);
              let word = ops.(2 * j) and aux = ops.((2 * j) + 1) in
              if word land 7 = tag_scan then begin
                (* A scan sub-get: flush once per scan, then read around
                   the cache. *)
                (match fc with
                | Some fc when aux land 1 = 1 -> Fcache.scan_flush fc
                | _ -> ());
                ignore (count (M.find m key) : int64 option);
                "scan"
              end
              else
                let op = point_op (word land 7) (word lsr 3) aux in
                Workload.apply ~find ~insert op;
                Workload.op_name op)
        done;
        (* Write every dirty entry back, as a cache-disabled run would have. *)
        Option.iter
          (fun fc ->
            Telemetry.span "serving.drain" (fun () -> Fcache.drain fc);
            cache := Fcache.stats fc)
          fc)
  in
  let size, digest =
    Telemetry.span "serving.digest" (fun () ->
        let size = M.size m and digest = ref 0L in
        M.iter m (fun ~key ~value -> digest := Int64.add !digest (entry_hash ~key ~value));
        (size, !digest))
  in
  (match region with
  | Runtime.Pool_region id -> Runtime.detach_pool rt id
  | Runtime.Dram_region -> ());
  Runtime.publish_stats rt;
  {
    index = shard;
    records = Array.length loads;
    ops = n_ops;
    size;
    found = !found;
    missing = !missing;
    load = r.Harness.load;
    run = r.Harness.run;
    cache = !cache;
    digest;
    oplat = r.Harness.oplat;
  }

(* --- the engine ---------------------------------------------------------- *)

let inline_runner fs = List.map (fun f -> f ()) fs

let c_hit = Telemetry.counter "serving.cache.hit"
let c_miss = Telemetry.counter "serving.cache.miss"
let c_writeback = Telemetry.counter "serving.cache.writeback"
let c_evict = Telemetry.counter "serving.cache.evict"
let c_scan_flush = Telemetry.counter "serving.cache.scan_flush"
let c_ops = Telemetry.counter "serving.ops"

(* Run the configured serving workload.  [par] runs the share-nothing
   shard cells — [Pool.run pool] in bench, sequential by default; the
   merge below consumes results in shard-index (= submission) order, so
   the report is byte-identical either way. *)
let run ?(par = inline_runner) (c : config) : t =
  if c.shards < 1 then invalid_arg "Serving.run: shards must be >= 1";
  if c.batch < 1 then invalid_arg "Serving.run: batch must be >= 1";
  if c.front_cache < 0 then invalid_arg "Serving.run: front_cache must be >= 0";
  if c.front_cache > 0 && c.front_cache < c.shards then
    invalid_arg "Serving.run: front_cache must be 0 or at least shards";
  let (module M : Intf.ORDERED_MAP) = Registry.find_map c.structure in
  let loads, ops = partition c in
  let per_shard =
    par
      (List.init c.shards (fun s () ->
           run_shard c (module M) ~shard:s ~loads:loads.(s) ~ops:ops.(s) ()))
  in
  let merged_ol = Oplat.create ~cell:(Printf.sprintf "serving/%s" M.name) () in
  List.iter (fun (s : shard) -> Oplat.merge_into ~dst:merged_ol s.oplat) per_shard;
  let sum f = List.fold_left (fun acc (s : shard) -> acc + f s) 0 per_shard in
  let maxi f =
    List.fold_left (fun acc (s : shard) -> max acc (f s)) 0 per_shard
  in
  let cache =
    List.fold_left
      (fun acc (s : shard) -> add_cache_stats acc s.cache)
      zero_cache_stats per_shard
  in
  let digest =
    List.fold_left
      (fun acc (s : shard) -> Int64.add acc s.digest)
      0L per_shard
  in
  let t =
    {
      structure = M.name;
      mode = c.mode;
      spec = c.spec;
      shards = c.shards;
      batch = c.batch;
      front_cache = c.shards * (c.front_cache / c.shards);
      per_shard;
      records = sum (fun s -> s.records);
      ops = sum (fun s -> s.ops);
      found = sum (fun s -> s.found);
      missing = sum (fun s -> s.missing);
      size = sum (fun s -> s.size);
      load_cycles_max = maxi (fun s -> s.load.Cpu.cycles);
      run_cycles_max = maxi (fun s -> s.run.Cpu.cycles);
      run_cycles_total = sum (fun s -> s.run.Cpu.cycles);
      cache;
      digest;
      oplat = merged_ol;
    }
  in
  Telemetry.add c_hit cache.hits;
  Telemetry.add c_miss cache.misses;
  Telemetry.add c_writeback cache.writebacks;
  Telemetry.add c_evict cache.evictions;
  Telemetry.add c_scan_flush cache.scan_flushes;
  Telemetry.add c_ops t.ops;
  t
