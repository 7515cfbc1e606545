(* YCSB-style workload specifications and operation streams.

   The paper's harness (Section VII-A) uses a preset with 10,000
   key-value pairs, 100,000 operations, 95 % GET / 5 % SET where every
   SET inserts a *new* pair, keys drawn with the "latest" distribution
   and 8-byte keys and values.  That preset is [paper_default]; the
   other classic YCSB mixes are provided for the extended benchmarks. *)

type dist_kind = Uniform | Zipfian | Scrambled_zipfian | Latest | Hotspot

type spec = {
  name : string;
  record_count : int; (* pairs loaded before the run phase *)
  operation_count : int;
  read_proportion : float;
  update_proportion : float; (* SET to an existing key *)
  insert_proportion : float; (* SET inserting a new key *)
  scan_proportion : float; (* multi-get over consecutive record indices *)
  rmw_proportion : float; (* read-modify-write on an existing key *)
  scan_length : int; (* records per scan *)
  hot_fraction : float; (* Hotspot: fraction of records in the hot set *)
  hot_op_fraction : float; (* Hotspot: fraction of draws hitting it *)
  distribution : dist_kind;
  seed : int;
}

let paper_default =
  {
    name = "paper (95% GET / 5% insert, latest)";
    record_count = 10_000;
    operation_count = 100_000;
    read_proportion = 0.95;
    update_proportion = 0.0;
    insert_proportion = 0.05;
    scan_proportion = 0.0;
    rmw_proportion = 0.0;
    scan_length = 16;
    hot_fraction = 0.01;
    hot_op_fraction = 0.9;
    distribution = Latest;
    seed = 42;
  }

(* Classic YCSB core workload A. *)
let workload_a =
  {
    paper_default with
    name = "YCSB-A (50% read / 50% update, zipfian)";
    read_proportion = 0.5;
    update_proportion = 0.5;
    insert_proportion = 0.0;
    distribution = Scrambled_zipfian;
  }

let scale spec factor =
  {
    spec with
    record_count = max 1 (spec.record_count / factor);
    operation_count = max 1 (spec.operation_count / factor);
  }

(* The key for record index [i]: scrambled so adjacent indices do not
   produce adjacent keys (YCSB hashes "user<i>" similarly). *)
let key_of_index i = Distribution.scramble (Int64.of_int (i + 1))

(* One run-phase op at the record-index level: a record's key is
   [key_of_index] of its index and a value or delta is [Int64.of_int]
   of its int, both derived at replay. *)
type idx_op =
  | IRead of int
  | IUpdate of int * int
  | IInsert of int * int
  | IScan of int * int
  | IRmw of int * int

let make_dist spec n =
  match spec.distribution with
  | Uniform -> Distribution.uniform n
  | Zipfian -> Distribution.zipfian n
  | Scrambled_zipfian -> Distribution.scrambled_zipfian n
  | Latest -> Distribution.latest n
  | Hotspot ->
      Distribution.hotspot ~hot_frac:spec.hot_fraction
        ~op_frac:spec.hot_op_fraction n

(* Stream the run-phase operations to [f] in order, at the record-index
   level.  Inserts append new record indices and extend the key
   population, exactly like the YCSB D workload; the caller loads
   records [0, record_count) first.  Branch order keeps insert as the
   catch-all so the streams of the pre-serving mixes (scan and RMW
   proportions zero) are bit-identical to earlier releases. *)
let iter_idx_ops spec f =
  let rng = Random.State.make [| spec.seed |] in
  let dist = make_dist spec spec.record_count in
  let inserted = ref spec.record_count in
  let t_read = spec.read_proportion in
  let t_update = t_read +. spec.update_proportion in
  let t_scan = t_update +. spec.scan_proportion in
  let t_rmw = t_scan +. spec.rmw_proportion in
  for opno = 1 to spec.operation_count do
    let r = Random.State.float rng 1.0 in
    if r < t_read then f (IRead (Distribution.sample dist rng))
    else if r < t_update then f (IUpdate (Distribution.sample dist rng, opno))
    else if r < t_scan then begin
      let start = Distribution.sample dist rng in
      let len = min spec.scan_length (Distribution.population dist - start) in
      f (IScan (start, max 1 len))
    end
    else if r < t_rmw then f (IRmw (Distribution.sample dist rng, opno))
    else begin
      let idx = !inserted in
      incr inserted;
      Distribution.grow dist;
      f (IInsert (idx, opno))
    end
  done

let ops spec =
  let a = Array.make spec.operation_count (IRead 0) and n = ref 0 in
  iter_idx_ops spec (fun op ->
      a.(!n) <- op;
      incr n);
  a

(* The record an op touches first: a scan's first record. *)
let first_record = function
  | IRead i | IUpdate (i, _) | IInsert (i, _) | IScan (i, _) | IRmw (i, _) -> i

let op_name = function
  | IRead _ -> "get"
  | IUpdate _ -> "put"
  | IInsert _ -> "insert"
  | IScan _ -> "scan"
  | IRmw _ -> "rmw"

(* What the load phase puts in a map, record by record, for the same
   drivers as [apply] below. *)
let load_record ~insert i = insert ~key:(key_of_index i) ~value:(Int64.of_int i)

(* What an op does to a map: the one statement of the stream's
   semantics that every driver (the Sec. VII-A harness, the crash-sweep
   KV workload, the multi-core kv run, the serving engine's shards)
   replays. *)
let apply ~find ~insert = function
  | IRead i -> ignore (find (key_of_index i) : int64 option)
  | IUpdate (i, v) | IInsert (i, v) ->
      insert ~key:(key_of_index i) ~value:(Int64.of_int v)
  | IScan (start, len) ->
      for j = start to start + len - 1 do
        ignore (find (key_of_index j) : int64 option)
      done
  | IRmw (i, delta) ->
      let k = key_of_index i in
      let v = match find k with Some v -> v | None -> 0L in
      insert ~key:k ~value:(Int64.add v (Int64.of_int delta))

(* Serving-scale mixes for the sharded engine: the paper preset scaled
   up, plus scan-heavy, read-modify-write, and hot-key-storm mixes.
   [records]/[ops] parameterize the scale so the same presets drive
   both the quick smoke and the full-scale bench run. *)
let serving_mixes ~records ~ops =
  let base =
    { paper_default with record_count = records; operation_count = ops }
  in
  [
    ( "read-latest",
      { base with name = "read-latest (95% GET / 5% insert, latest)" } );
    ( "scan-heavy",
      {
        base with
        name = "scan-heavy (45% GET / 50% scan-16 / 5% update, zipfian)";
        read_proportion = 0.45;
        update_proportion = 0.05;
        insert_proportion = 0.0;
        scan_proportion = 0.5;
        scan_length = 16;
        distribution = Zipfian;
      } );
    ( "rmw-heavy",
      {
        base with
        name = "rmw-heavy (50% GET / 50% RMW, scrambled-zipfian)";
        read_proportion = 0.5;
        update_proportion = 0.0;
        insert_proportion = 0.0;
        rmw_proportion = 0.5;
        distribution = Scrambled_zipfian;
      } );
    ( "hot-storm",
      {
        base with
        name = "hot-storm (95% GET / 5% update, 0.1% keys take 90% ops)";
        read_proportion = 0.95;
        update_proportion = 0.05;
        insert_proportion = 0.0;
        hot_fraction = 0.001;
        hot_op_fraction = 0.9;
        distribution = Hotspot;
      } );
  ]

let pp_spec ppf s =
  Fmt.pf ppf "%s: %d records, %d ops, %.0f/%.0f/%.0f R/U/I" s.name
    s.record_count s.operation_count
    (100. *. s.read_proportion)
    (100. *. s.update_proportion)
    (100. *. s.insert_proportion);
  if s.scan_proportion > 0.0 || s.rmw_proportion > 0.0 then
    Fmt.pf ppf " +%.0f/%.0f S/M"
      (100. *. s.scan_proportion)
      (100. *. s.rmw_proportion)
