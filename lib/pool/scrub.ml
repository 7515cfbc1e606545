(* The scrub/repair engine: walk every attached pool, verify every
   piece of checksummed metadata, repair what the replica superblock
   can vouch for, and leave anything unrepairable in read-only degraded
   mode with a reachability report of what was lost.

   Scrubbing is read-mostly and tolerant: where the allocator raises on
   the first bad header, the scrub keeps a per-pool findings list and
   walks as far as the damage allows.  All reads go through the media
   model (a poisoned line surfaces here as a finding, not a crash);
   repair writes go through [Pmop.scrub_access], which heals the media
   locations it rewrites but bypasses the application write protocol. *)

module Media = Nvml_media.Media
module Telemetry = Nvml_telemetry.Telemetry
module Ptr = Nvml_core.Ptr

let c_runs = Telemetry.counter "media.scrub.runs"
let c_pools = Telemetry.counter "media.scrub.pools"
let c_detected = Telemetry.counter "media.scrub.detected"
let c_repaired = Telemetry.counter "media.scrub.repaired"
let c_unrepairable = Telemetry.counter "media.scrub.unrepairable"
let c_lost_objects = Telemetry.counter "media.scrub.lost_objects"

type quirk =
  | Blind_primary
      (** re-enables a pre-release bug: the scrub trusted the primary
          superblock without verifying its checksum, so primary
          corruption went undetected until the next attach *)

type finding_kind =
  | Superblock_primary
  | Superblock_replica
  | Block_header of int64  (** header offset *)
  | Freelist_chain
  | Root
  | Poisoned_payload of int64 * int  (** block offset, unreadable words *)

type finding = { kind : finding_kind; detail : string; repaired : bool }

type pool_state = Clean | Repaired | Degraded | Skipped

type pool_report = {
  pool : int;
  name : string;
  state : pool_state;
  findings : finding list;
  blocks : int;  (** blocks reached by the heap walk *)
  lost_bytes : int64;  (** heap bytes behind a corrupt header *)
  lost_objects : int;  (** allocated blocks with unreadable payload *)
}

type report = {
  pools : pool_report list;
  detected : int;
  repaired : int;
  unrepairable : int;
  lost_objects : int;
}

type t = { pm : Pmop.t; mutable blind_primary : bool }

let create pm = { pm; blind_primary = false }
let enable_quirk t Blind_primary = t.blind_primary <- true

let is_metadata = function
  | Superblock_primary | Superblock_replica | Block_header _ | Freelist_chain
  | Root ->
      true
  | Poisoned_payload _ -> false

let ( +! ) = Int64.add
let ( -! ) = Int64.sub

(* Walk the heap tiling with checksum-verified headers, stopping at the
   first corrupt or unreadable one.  Returns the blocks reached, the
   payload-poison findings, and the offset where the walk died (if it
   did). *)
let walk_heap a ~heap_end =
  let findings = ref [] in
  let blocks = ref [] in
  let rec go b =
    if Int64.equal b heap_end then None
    else
      match Freelist.header_corrupt a b with
      | exception Media.Media_error m ->
          Some (b, "header unreadable: " ^ m)
      | true -> Some (b, "header fails its checksum")
      | false ->
          let size = Freelist.block_size a b in
          let allocated = Freelist.block_allocated a b in
          if
            size < Freelist.min_block
            || Int64.rem size 16L <> 0L
            || b +! size > heap_end
          then Some (b, Fmt.str "structurally invalid size %Ld" size)
          else begin
            (if allocated then begin
               (* Reachability probe: is the object's payload readable? *)
               let poisoned = ref 0 in
               let w = ref (b +! Freelist.header_size) in
               while !w < b +! size do
                 (try ignore (a.Freelist.read !w)
                  with Media.Media_error _ -> incr poisoned);
                 w := !w +! 8L
               done;
               if !poisoned > 0 then
                 findings :=
                   {
                     kind = Poisoned_payload (b, !poisoned);
                     detail =
                       Fmt.str "object at %Ld: %d unreadable word%s"
                         (b +! Freelist.header_size) !poisoned
                         (if !poisoned = 1 then "" else "s");
                     repaired = false;
                   }
                   :: !findings
             end);
            blocks := (b, size, allocated) :: !blocks;
            go (b +! size)
          end
  in
  let dead = go Freelist.heap_start in
  (List.rev !blocks, List.rev !findings, dead)

let scrub_pool t ~repair pool =
  let pm = t.pm in
  let name = Pmop.pool_name pm pool in
  match Pmop.pool_base pm pool with
  | None ->
      {
        pool;
        name;
        state = Skipped;
        findings = [];
        blocks = 0;
        lost_bytes = 0L;
        lost_objects = 0;
      }
  | Some _ ->
      let cap = Int64.of_int (Pmop.pool_size pm pool) in
      let heap_end = Freelist.heap_limit ~capacity:cap in
      let a = Pmop.scrub_access pm ~pool in
      let findings = ref [] in
      let add kind detail repaired =
        findings := { kind; detail; repaired } :: !findings
      in
      (* Superblock verification: primary, then replica.  The quirk
         reproduces the old blind-trust behaviour for the fuzzer's
         --break self-test. *)
      let primary =
        if t.blind_primary then Freelist.Sealed
        else
          try Freelist.superblock_state a
          with Media.Media_error m -> Freelist.Corrupt ("unreadable: " ^ m)
      in
      let replica_ok =
        match Freelist.replica_state a ~capacity:cap with
        | Freelist.Sealed -> true
        | Freelist.Dirty | Freelist.Uninitialized | Freelist.Corrupt _ -> false
        | exception Media.Media_error _ -> false
      in
      let primary =
        match primary with
        | Freelist.Sealed | Freelist.Dirty -> primary
        | Freelist.Uninitialized | Freelist.Corrupt _ ->
            let detail =
              match primary with
              | Freelist.Corrupt m -> m
              | _ -> "no magic and no seal"
            in
            if repair && replica_ok then begin
              Freelist.restore_from_replica a ~capacity:cap;
              match Freelist.superblock_state a with
              | Freelist.Sealed ->
                  add Superblock_primary (detail ^ "; restored from replica")
                    true;
                  Freelist.Sealed
              | s ->
                  add Superblock_primary (detail ^ "; replica restore failed")
                    false;
                  s
            end
            else begin
              add Superblock_primary
                (if replica_ok then detail ^ " (replica intact)"
                 else detail ^ " (replica lost too)")
                false;
              primary
            end
      in
      if not replica_ok then
        (* Repairable by re-seal iff the primary side is trustworthy. *)
        add Superblock_replica "replica superblock fails verification" false;
      (* Structural walk.  With an unrepaired corrupt primary the
         superblock words cannot be trusted, but the heap tiling is
         independent of them, so the reachability walk still runs. *)
      let blocks, payload_findings, dead = walk_heap a ~heap_end in
      List.iter (fun f -> findings := f :: !findings) payload_findings;
      let lost_bytes =
        match dead with
        | None -> 0L
        | Some (b, detail) ->
            add (Block_header b) detail false;
            heap_end -! b
      in
      (* Free-list chain and accounting, meaningful only when both the
         superblock words and every header are intact. *)
      let primary_usable =
        match primary with
        | Freelist.Sealed | Freelist.Dirty -> true
        | _ -> false
      in
      if primary_usable && dead = None then begin
        match Freelist.check_invariants a with
        | (_ : int64) -> ()
        | exception Freelist.Corrupt_arena m -> add Freelist_chain m false
        | exception Media.Media_error m ->
            add Freelist_chain ("unreadable: " ^ m) false
      end;
      (* Root reachability: a pointer-shaped root must land inside an
         allocated block of its own pool.  Opaque words are not ours to
         judge; a cross-pool root is checked by the runtime instead. *)
      (match a.Freelist.read Freelist.off_root with
      | exception Media.Media_error m -> add Root ("unreadable: " ^ m) false
      | root ->
          if
            (not (Ptr.is_null root))
            && Ptr.is_relative root
            && Ptr.pool_of root = pool
            && dead = None
          then begin
            let off = Ptr.offset_of root in
            let inside (b, size, allocated) =
              allocated
              && off >= b +! Freelist.header_size
              && off < b +! size
            in
            if not (List.exists inside blocks) then
              add Root
                (Fmt.str "root %Ld points at no allocated object" off)
                false
          end);
      let findings = List.rev !findings in
      (* A damaged replica is loss of redundancy, not of data: when the
         primary side checks out completely, the re-seal below rewrites
         the replica area, which is the repair. *)
      let primary_clean =
        primary_usable && dead = None
        && List.for_all
             (fun (f : finding) ->
               match f.kind with
               | Superblock_primary -> f.repaired
               | Block_header _ | Freelist_chain | Root -> false
               | Superblock_replica | Poisoned_payload _ -> true)
             findings
      in
      let findings =
        if repair && primary_clean then
          List.map
            (fun (f : finding) ->
              match f.kind with
              | Superblock_replica ->
                  {
                    f with
                    repaired = true;
                    detail = f.detail ^ "; rewritten by re-seal";
                  }
              | _ -> f)
            findings
        else findings
      in
      (* Only damage on the primary side makes the pool unsafe to write;
         an unrepaired replica merely leaves it without a safety net. *)
      let degrading (f : finding) =
        (not f.repaired)
        &&
        match f.kind with
        | Superblock_primary | Block_header _ | Freelist_chain | Root -> true
        | Superblock_replica | Poisoned_payload _ -> false
      in
      let unrepaired_primary = List.exists degrading findings in
      let repaired_any = List.exists (fun (f : finding) -> f.repaired) findings in
      let lost_objects =
        List.length
          (List.filter
             (fun f ->
               match f.kind with Poisoned_payload _ -> true | _ -> false)
             findings)
      in
      let state =
        if unrepaired_primary then begin
          Pmop.set_pool_degraded pm ~pool true;
          Degraded
        end
        else if repaired_any then begin
          (* Every degrading finding was repaired: refresh the seal (which
             also rewrites — and thereby heals — the replica area) and
             hand the pool back read-write. *)
          Freelist.seal a;
          Pmop.mark_pool_repaired pm ~pool;
          Repaired
        end
        else if repair && Pmop.is_degraded pm ~pool then begin
          (* Degraded on a previous pass, but this full verification came
             back clean: hand the pool back. *)
          Pmop.mark_pool_repaired pm ~pool;
          Repaired
        end
        else Clean
      in
      { pool; name; state; findings; blocks = List.length blocks; lost_bytes;
        lost_objects }

let run t ~repair =
  let reports = List.map (scrub_pool t ~repair) (Pmop.pool_ids t.pm) in
  let count f = List.fold_left (fun n r -> n + f r) 0 reports in
  let detected =
    count (fun r -> List.length (List.filter (fun f -> is_metadata f.kind) r.findings))
  in
  let repaired =
    count (fun r -> List.length (List.filter (fun (f : finding) -> f.repaired) r.findings))
  in
  let unrepairable =
    count (fun r -> List.length (List.filter (fun (f : finding) -> not f.repaired) r.findings))
  in
  let lost_objects = count (fun r -> r.lost_objects) in
  Telemetry.incr c_runs;
  Telemetry.add c_pools (List.length reports);
  Telemetry.add c_detected detected;
  Telemetry.add c_repaired repaired;
  Telemetry.add c_unrepairable unrepairable;
  Telemetry.add c_lost_objects lost_objects;
  { pools = reports; detected; repaired; unrepairable; lost_objects }

(* --- reporting -------------------------------------------------------- *)

let pp_kind ppf = function
  | Superblock_primary -> Fmt.string ppf "superblock"
  | Superblock_replica -> Fmt.string ppf "replica"
  | Block_header off -> Fmt.pf ppf "header@%Ld" off
  | Freelist_chain -> Fmt.string ppf "freelist"
  | Root -> Fmt.string ppf "root"
  | Poisoned_payload (off, _) -> Fmt.pf ppf "payload@%Ld" off

let pp_state ppf = function
  | Clean -> Fmt.string ppf "clean"
  | Repaired -> Fmt.string ppf "repaired"
  | Degraded -> Fmt.string ppf "DEGRADED (read-only)"
  | Skipped -> Fmt.string ppf "skipped (detached)"

let pp_pool_report ppf r =
  Fmt.pf ppf "pool %d %S: %a (%d blocks walked" r.pool r.name pp_state r.state
    r.blocks;
  if r.lost_bytes > 0L then Fmt.pf ppf ", %Ld bytes unreachable" r.lost_bytes;
  if r.lost_objects > 0 then Fmt.pf ppf ", %d objects lost" r.lost_objects;
  Fmt.pf ppf ")";
  List.iter
    (fun f ->
      Fmt.pf ppf "@,  %a: %s%s" pp_kind f.kind f.detail
        (if f.repaired then " [repaired]" else ""))
    r.findings

let pp_report ppf t =
  Fmt.pf ppf "@[<v>";
  List.iter (fun r -> Fmt.pf ppf "%a@," pp_pool_report r) t.pools;
  Fmt.pf ppf "scrub: %d finding%s detected, %d repaired, %d unrepairable"
    t.detected
    (if t.detected = 1 then "" else "s")
    t.repaired t.unrepairable;
  if t.lost_objects > 0 then Fmt.pf ppf " (%d objects lost)" t.lost_objects;
  Fmt.pf ppf "@]"
