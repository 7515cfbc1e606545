(** Scrub/repair engine for pool integrity metadata.

    Walks every pool of a {!Pmop.t}: verifies the primary and replica
    superblock checksums, the checksum of every block header, the
    free-list chain and accounting, and the root pointer's
    reachability; probes every allocated payload for unreadable
    (poisoned) words.  With [~repair:true] it restores a corrupt
    primary superblock from an intact replica (and vice versa, by
    re-sealing), then re-validates the arena structurally.  Pools left
    with unrepaired primary-side metadata findings are put in read-only
    degraded mode — a damaged replica alone never degrades a pool, it
    only costs redundancy; data loss (payload poison, heap cut off behind a corrupt
    header) is reported but cannot be repaired — there is no data
    redundancy, only metadata redundancy.

    Emits [media.scrub.*] telemetry counters.  Deterministic: findings
    are ordered by pool id and heap offset, never by discovery
    timing. *)

type quirk =
  | Blind_primary
      (** re-enables a pre-release bug: trust the primary superblock
          without verifying its checksum (for --break self-tests) *)

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
  lost_bytes : int64;  (** heap bytes unreachable behind a corrupt header *)
  lost_objects : int;  (** allocated blocks with unreadable payload *)
}

type report = {
  pools : pool_report list;
  detected : int;  (** metadata findings (payload loss excluded) *)
  repaired : int;
  unrepairable : int;  (** findings of any kind left unrepaired *)
  lost_objects : int;
}

type t

val create : Pmop.t -> t
val enable_quirk : t -> quirk -> unit
val run : t -> repair:bool -> report

val pp_report : report Fmt.t
