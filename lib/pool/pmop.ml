(* Persistent memory object pool (PMOP) manager — the OS/kernel side of
   the design: pool creation, opening (mapping into the NVM half of the
   address space), detaching, and the two kernel tables the hardware
   lookaside buffers are backed by:

     POT  (persistent object table) : pool id -> current virtual base
     VAT  (virtual address table)   : virtual range -> pool id

   Pools are long-lived: their physical NVM frames and registry entries
   survive a simulated crash; their mappings do not.  On re-open after a
   restart the manager deliberately maps pools at *different* virtual
   bases, exercising the relocatability persistent pointers exist for. *)

module Mem = Nvml_simmem.Mem
module Layout = Nvml_simmem.Layout
module Vspace = Nvml_simmem.Vspace
module Physmem = Nvml_simmem.Physmem
module Fi = Nvml_simmem.Fi
module Ptr = Nvml_core.Ptr
module Xlate = Nvml_core.Xlate
module Telemetry = Nvml_telemetry.Telemetry
module Media = Nvml_media.Media

let c_pool_creates = Telemetry.counter "pool.creates"
let c_pool_opens = Telemetry.counter "pool.opens"
let c_pmallocs = Telemetry.counter "pool.pmallocs"
let c_pfrees = Telemetry.counter "pool.pfrees"
let c_attach_verified = Telemetry.counter "media.attach.verified"
let c_attach_dirty = Telemetry.counter "media.attach.dirty"
let c_attach_degraded = Telemetry.counter "media.attach.degraded"
let c_seals = Telemetry.counter "media.seals"
let c_write_refused = Telemetry.counter "media.writes_refused"

type pool = {
  id : int;
  name : string;
  size : int; (* bytes, page-rounded *)
  frames : int list; (* persistent physical NVM frames *)
  mutable base : int64 option; (* POT entry: None when detached *)
  mutable degraded : bool;
      (* attached read-only: the superblock failed verification and was
         not (or could not be) repaired.  Volatile attach state. *)
  mutable dirtied : bool;
      (* this attach session has broken the seal (or attached a dirty
         image); the first metadata write of a sealed session verifies
         the superblock checksum, then marks the arena dirty *)
}

type t = {
  mem : Mem.t;
  mutable pools : pool array;
      (* the registry: ids are dense from 1, pool [id] is [pools.(id - 1)];
         pools are never unregistered *)
  by_name : (string, int) Hashtbl.t;
  mutable restarts : int;
  mutable vat : (int64 * int64 * int) array;
      (* mapped pools sorted by base: (base, size, id) *)
  mutable meta_hook : (pool:int -> offset:int64 -> unit) option;
      (* called before every allocator-metadata write; lets a
         transaction undo-log freelist updates (see Txn.instrument) *)
  mutable degraded_count : int;
      (* pools currently attached read-only; lets the runtime's store
         path guard cost one integer test when everything is healthy *)
  map_generation : int ref;
      (* bumped on every mapping change; shared with the translation
         provider so Xlate can memoize pool-base lookups safely *)
}

exception Unknown_pool of string
exception Already_open of string

let create mem =
  {
    mem;
    pools = [||];
    by_name = Hashtbl.create 16;
    restarts = 0;
    vat = [||];
    meta_hook = None;
    degraded_count = 0;
    map_generation = ref 0;
  }

let mem t = t.mem

let rebuild_vat t =
  incr t.map_generation;
  let entries =
    Array.fold_left
      (fun acc p ->
        match p.base with
        | Some base -> (base, Int64.of_int p.size, p.id) :: acc
        | None -> acc)
      [] t.pools
  in
  t.vat <-
    Array.of_list
      (List.sort (fun (a, _, _) (b, _, _) -> Int64.compare a b) entries)

let registered t id = id >= 1 && id <= Array.length t.pools

let find_pool t id =
  if registered t id then Array.unsafe_get t.pools (id - 1)
  else raise (Unknown_pool (string_of_int id))

let find_pool_by_name t name =
  match Hashtbl.find_opt t.by_name name with
  | Some id -> find_pool t id
  | None -> raise (Unknown_pool name)

let pool_base t id = (find_pool t id).base
let pool_id_of_name t name = (find_pool_by_name t name).id
let pool_size t id = (find_pool t id).size
let pool_ids t = List.init (Array.length t.pools) (fun i -> i + 1)

let set_degraded t (p : pool) v =
  if p.degraded <> v then begin
    p.degraded <- v;
    t.degraded_count <- t.degraded_count + (if v then 1 else -1)
  end

let refuse_write (p : pool) =
  if Telemetry.enabled () then Telemetry.incr c_write_refused;
  raise
    (Media.Media_error
       (Fmt.str "%s: pool is attached read-only (degraded)" p.name))

(* Arena accessor for an open pool: reads/writes by intra-pool offset.
   Recursive because the seal-breaking write below re-enters the writer
   for the dirty marker itself. *)
let rec arena_access t (p : pool) : Freelist.access =
  match p.base with
  | None -> raise (Already_open (p.name ^ ": not mapped"))
  | Some base ->
      {
        Freelist.read = (fun off -> Mem.read_word t.mem (Int64.add base off));
        write =
          (fun off v ->
            if p.degraded then refuse_write p;
            if not p.dirtied then begin
              (* First metadata write of a sealed session: this is the
                 dereference point for the checksummed superblock —
                 verify it before trusting the free list it describes,
                 then break the seal.  Setting [dirtied] first keeps the
                 dirty marker's own write from recursing. *)
              let a = arena_access t p in
              (match Freelist.superblock_state a with
              | Freelist.Sealed | Freelist.Dirty | Freelist.Uninitialized -> ()
              | Freelist.Corrupt reason ->
                  raise
                    (Media.Media_error
                       (Fmt.str "%s: superblock: %s" p.name reason)));
              p.dirtied <- true;
              Freelist.mark_dirty a
            end;
            Physmem.fire (Mem.phys t.mem)
              (Fi.Alloc_meta_write { pool = p.id; offset = off });
            (match t.meta_hook with
            | None -> ()
            | Some f -> f ~pool:p.id ~offset:off);
            Mem.write_word t.mem (Int64.add base off) v);
      }

(* Maintenance accessor for the scrub engine: reads are still subject
   to the media model (scrub catches [Media_error] itself), but writes
   bypass the degraded refusal, the seal protocol, fault-injection
   events and the transaction hook — repair is not an application
   mutation. *)
let scrub_access t ~pool : Freelist.access =
  let p = find_pool t pool in
  match p.base with
  | None -> raise (Already_open (p.name ^ ": not mapped"))
  | Some base ->
      {
        Freelist.read = (fun off -> Mem.read_word t.mem (Int64.add base off));
        write = (fun off v -> Mem.write_word t.mem (Int64.add base off) v);
      }

let set_meta_hook t hook = t.meta_hook <- hook

(* Re-seal a quiescent pool: refresh the superblock checksum and the
   replica snapshot.  No-op for degraded (read-only) pools and for
   pools whose seal is already valid. *)
let seal_pool t ~pool =
  let p = find_pool t pool in
  if p.base <> None && (not p.degraded) && p.dirtied then begin
    Freelist.seal (arena_access t p);
    p.dirtied <- false;
    if Telemetry.enabled () then Telemetry.incr c_seals
  end

(* Create a pool: allocate its NVM frames, map it, initialize its
   embedded allocator, and return its system-wide unique id. *)
let create_pool t ~name ~size =
  if Telemetry.enabled () then Telemetry.incr c_pool_creates;
  if Hashtbl.mem t.by_name name then
    Fmt.invalid_arg "Pmop.create_pool: pool %S already exists" name;
  let size = Layout.pages_of_bytes size * Layout.page_size in
  if Int64.of_int size > Ptr.max_pool_size then
    Fmt.invalid_arg "Pmop.create_pool: %d bytes exceeds 4 GiB pool limit" size;
  let id = Array.length t.pools + 1 in
  let frames =
    Nvml_simmem.Physmem.alloc_frames (Mem.phys t.mem) Layout.Nvm
      (Layout.pages_of_bytes size)
  in
  let base = Mem.map_existing t.mem Layout.Nvm frames in
  let pool =
    { id; name; size; frames; base = Some base; degraded = false; dirtied = true }
  in
  t.pools <- Array.append t.pools [| pool |];
  Hashtbl.replace t.by_name name id;
  Freelist.init (arena_access t pool) ~capacity:(Int64.of_int size);
  (* A fresh pool starts sealed: its checksums and replica are valid
     until the first allocation of this session breaks the seal. *)
  Freelist.seal (arena_access t pool);
  pool.dirtied <- false;
  rebuild_vat t;
  id

(* Open (map) an existing pool, e.g. after a restart.  The manager skews
   the mapping base by a restart-dependent number of pages so that a
   pool never lands at the address it had in the previous run. *)
let open_pool t name =
  if Telemetry.enabled () then Telemetry.incr c_pool_opens;
  let p = find_pool_by_name t name in
  (match p.base with
  | Some _ -> raise (Already_open name)
  | None -> ());
  Vspace.skew_nvm_brk (Mem.vspace t.mem) (1 + ((t.restarts * 31 + p.id * 7) mod 61));
  let base = Mem.map_existing t.mem Layout.Nvm p.frames in
  p.base <- Some base;
  rebuild_vat t;
  (* Verified attach.  A sealed image must pass its checksum; a dirty
     image is a crash picture whose consistency the undo-log journal
     governs, exactly as before the integrity layer existed.  A corrupt
     (or unreadable) superblock degrades the attach to read-only rather
     than propagating garbage — the scrub engine decides whether the
     replica can repair it. *)
  let a = arena_access t p in
  let state =
    try Freelist.superblock_state a
    with Media.Media_error m -> Freelist.Corrupt ("unreadable: " ^ m)
  in
  (match state with
  | Freelist.Sealed ->
      set_degraded t p false;
      p.dirtied <- false;
      if Telemetry.enabled () then Telemetry.incr c_attach_verified
  | Freelist.Dirty ->
      set_degraded t p false;
      p.dirtied <- true;
      if Telemetry.enabled () then Telemetry.incr c_attach_dirty
  | Freelist.Uninitialized ->
      (* No magic and no seal: creation never completed.  If the
         replica still vouches for the pool this is media damage and
         worth a degraded attach; otherwise the image is simply gone. *)
      let cap = Int64.of_int p.size in
      if
        try Freelist.replica_intact a ~capacity:cap
        with Media.Media_error _ -> false
      then begin
        set_degraded t p true;
        p.dirtied <- true;
        if Telemetry.enabled () then Telemetry.incr c_attach_degraded
      end
      else begin
        p.base <- None;
        Mem.unmap t.mem ~base ~bytes:p.size;
        rebuild_vat t;
        raise (Freelist.Corrupt_arena (name ^ ": pool image lost its header"))
      end
  | Freelist.Corrupt _ ->
      set_degraded t p true;
      p.dirtied <- true;
      if Telemetry.enabled () then Telemetry.incr c_attach_degraded);
  base

let detach_pool t id =
  let p = find_pool t id in
  match p.base with
  | None -> ()
  | Some base ->
      (* A clean detach leaves the image sealed, so the next attach can
         verify it end to end; degraded pools are left untouched. *)
      seal_pool t ~pool:id;
      Mem.unmap t.mem ~base ~bytes:p.size;
      p.base <- None;
      set_degraded t p false;
      rebuild_vat t

(* Simulated machine crash: volatile memory and all mappings vanish;
   pool frames and the registry survive. *)
let crash t =
  Mem.crash t.mem;
  Array.iter
    (fun p ->
      p.base <- None;
      (* Degraded is attach-session state: the next open re-verifies the
         (persistent) checksums and re-derives it. *)
      p.degraded <- false;
      p.dirtied <- true)
    t.pools;
  t.degraded_count <- 0;
  incr t.map_generation;
  t.vat <- [||];
  t.meta_hook <- None (* hooks are volatile state — reinstall after restart *);
  t.restarts <- t.restarts + 1

let restarts t = t.restarts

(* VAT lookup: binary search the mapped ranges for one covering [va]. *)
let pool_of_va t (va : int64) =
  let vat = t.vat in
  let rec search lo hi =
    if lo > hi then None
    else
      let mid = (lo + hi) / 2 in
      let base, size, id = vat.(mid) in
      if va < base then search lo (mid - 1)
      else if va >= Int64.add base size then search (mid + 1) hi
      else Some (id, base)
  in
  search 0 (Array.length vat - 1)

(* The translation provider handed to [Nvml_core.Xlate]. *)
let provider t : Xlate.provider =
  {
    Xlate.pool_base =
      (fun id -> if registered t id then (find_pool t id).base else None);
    pool_of_va = (fun va -> pool_of_va t va);
    generation = t.map_generation;
  }

(* --- persistent allocation (pmalloc / pfree) ------------------------- *)

(* pmalloc returns a *relative-format* pointer, per the paper's marking
   of allocator functions as returning relative addresses. *)
let pmalloc t ~pool size : Ptr.t =
  if Telemetry.enabled () then Telemetry.incr c_pmallocs;
  let p = find_pool t pool in
  if p.degraded then refuse_write p;
  let payload = Freelist.alloc (arena_access t p) (Int64.of_int size) in
  Ptr.make_relative ~pool ~offset:payload

let pfree t (ptr : Ptr.t) =
  if Telemetry.enabled () then Telemetry.incr c_pfrees;
  if not (Ptr.is_relative ptr) then
    invalid_arg "Pmop.pfree: not a persistent pointer";
  let p = find_pool t (Ptr.pool_of ptr) in
  if p.degraded then refuse_write p;
  Freelist.free (arena_access t p) (Ptr.offset_of ptr)

(* The per-pool root-object slot: the only well-known anchor an
   application needs to re-find its data after restart.  Values stored
   here are raw words; pointer-typed roots should be stored in relative
   format (the runtime's store-pointer path does that automatically). *)
let get_root t ~pool = Freelist.get_root (arena_access t (find_pool t pool))
let set_root t ~pool v = Freelist.set_root (arena_access t (find_pool t pool)) v

let allocated_bytes t ~pool =
  Freelist.allocated_bytes (arena_access t (find_pool t pool))

let check_pool_invariants t ~pool =
  Freelist.check_invariants (arena_access t (find_pool t pool))

(* --- degraded-mode bookkeeping for the runtime and the scrub engine -- *)

let pool_name t id = (find_pool t id).name
let pool_frames t ~pool = (find_pool t pool).frames
let is_degraded t ~pool = (find_pool t pool).degraded
let any_degraded t = t.degraded_count > 0

let set_pool_degraded t ~pool v = set_degraded t (find_pool t pool) v

let mark_pool_repaired t ~pool =
  let p = find_pool t pool in
  set_degraded t p false;
  p.dirtied <- false

(* Store-path guard: called by the runtime (only when [any_degraded])
   with the destination cell of every data store, in either pointer
   format.  DRAM targets are never refused. *)
let assert_cell_writable t (cell : Ptr.t) =
  let pool =
    if Ptr.is_relative cell then Some (Ptr.pool_of cell)
    else if Layout.is_nvm_va cell then
      match pool_of_va t cell with Some (id, _) -> Some id | None -> None
    else None
  in
  match pool with
  | Some id ->
      if registered t id then
        let p = find_pool t id in
        if p.degraded then refuse_write p
  | None -> ()

(* Structural validation of a root pointer before the application
   dereferences it: a pointer-shaped root must land inside its own
   pool's heap.  Opaque (non-pointer) root words and DRAM targets are
   the application's business. *)
let check_root_target t (root : Ptr.t) =
  let target =
    if Ptr.is_null root then None
    else if Ptr.is_relative root then
      Some (Ptr.pool_of root, Ptr.offset_of root)
    else if Layout.is_nvm_va root then
      match pool_of_va t root with
      | Some (id, base) -> Some (id, Int64.sub root base)
      | None -> None
    else None
  in
  match target with
  | None -> ()
  | Some (id, offset) ->
      let p = find_pool t id in
      let heap_end = Freelist.heap_limit ~capacity:(Int64.of_int p.size) in
      if
        offset < Int64.add Freelist.heap_start Freelist.header_size
        || offset >= heap_end
      then
        raise
          (Media.Media_error
             (Fmt.str "%s: root pointer offset %Ld is outside the heap"
                p.name offset))
