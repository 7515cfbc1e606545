(** YCSB-style workload specifications and operation streams.

    {!paper_default} is the paper's harness preset (Section VII-A):
    10,000 records, 100,000 operations, 95 % GET / 5 % SET where every
    SET inserts a new pair, keys drawn with the "latest" distribution. *)

type dist_kind = Uniform | Zipfian | Scrambled_zipfian | Latest | Hotspot

type spec = {
  name : string;
  record_count : int;
  operation_count : int;
  read_proportion : float;
  update_proportion : float;  (** SET to an existing key *)
  insert_proportion : float;  (** SET inserting a new key *)
  scan_proportion : float;  (** multi-get over consecutive record indices *)
  rmw_proportion : float;  (** read-modify-write on an existing key *)
  scan_length : int;  (** records per scan *)
  hot_fraction : float;  (** Hotspot: fraction of records in the hot set *)
  hot_op_fraction : float;  (** Hotspot: fraction of draws hitting it *)
  distribution : dist_kind;
  seed : int;
}

val paper_default : spec
val workload_a : spec

val scale : spec -> int -> spec
(** Divide record and operation counts by a factor. *)

val key_of_index : int -> int64
(** The (scrambled) key of record index [i]. *)

type op =
  | Read of int64
  | Update of int64 * int64
  | Insert of int64 * int64
  | Scan of int * int
      (** [Scan (start, len)]: multi-get of records [start .. start+len-1]
          by index; individual keys come from {!key_of_index}. *)
  | Rmw of int64 * int64
      (** [Rmw (key, delta)]: read the value of [key] and write back
          value + [delta]. *)

(** Index-level mirror of {!op}: record indices instead of keys, [int]
    values.  Used by the serving engine to encode operation streams
    compactly; keys are recomputed with {!key_of_index} at replay. *)
type idx_op =
  | IRead of int
  | IUpdate of int * int
  | IInsert of int * int
  | IScan of int * int
  | IRmw of int * int

val iter_ops : spec -> (op -> unit) -> unit
(** Stream the run-phase operations in order; deterministic per seed.
    Reads, updates, scans, and RMWs always target live keys; inserts
    always use fresh keys and extend the population. *)

val iter_idx_ops : spec -> (idx_op -> unit) -> unit
(** Same stream as {!iter_ops} at the record-index level. *)

val load_record : insert:(key:int64 -> value:int64 -> unit) -> int -> unit
(** The load phase of every kv run: record [i] is {!key_of_index} [i]
    with value [i]. *)

val apply :
  find:(int64 -> int64 option) ->
  insert:(key:int64 -> value:int64 -> unit) ->
  op ->
  unit
(** Replay one op against a map: a read finds its key; an update or
    insert stores its pair; a scan finds each of its records in index
    order; an RMW finds its key (a missing key reads 0) and stores the
    value plus its delta. *)

val serving_mixes : records:int -> ops:int -> (string * spec) list
(** The serving-engine mixes at the given scale: [read-latest] (the
    paper preset), [scan-heavy], [rmw-heavy], and [hot-storm]. *)

val pp_spec : spec Fmt.t
