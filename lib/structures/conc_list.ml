(* A durably-linearizable concurrent linked set for the multi-core
   machine: a singly linked list over a pre-sized node arena, published
   by head insertion.

   Arena.  The nodes live in a fixed array allocated at creation, and
   every insert targets a caller-chosen slot (in practice: a
   deterministic function of (core, op index)).  No allocator runs
   inside the measured window, so a crash can never catch allocator
   metadata mid-update — the only persistent state in flight is the
   node payload and the head pointer.

   Insert protocol: write the key into the slot (the node is still
   unreachable, so this is crash-benign), then — as one modeled atomic
   read-modify-write ({!Nvml_runtime.Runtime.atomically}) — link the
   node to the current head and swing the head pointer.  The head-swing
   store is the durability point: crash before it and the node is
   unreachable (operation not completed), crash at or after it and the
   node is recovered with key and next already in place (stores reach
   the media in program order).  Hence recovered contents always sit
   between the completed and the invoked insert sets — per core a
   prefix of its insertion order, since each core inserts sequentially.

   FliT marking brackets the publish + flush of each node; readers sync
   the header and each visited node through the table, eliding flushes
   on quiescent objects. *)

module Runtime = Nvml_runtime.Runtime
module Site = Nvml_runtime.Site
module Ptr = Nvml_core.Ptr

let s_hdr = Site.make "conc.list.header"
let s_node = Site.make "conc.list.node"
let s_iter = Site.make "conc.list.iter"

(* Header layout (byte offsets). *)
let h_head = 0 (* ptr: most recently published node *)
let h_cap = 8 (* word: arena capacity in slots *)
let h_slots = 16 (* slot 0 starts here *)

(* Slot layout. *)
let o_key = 0
let o_next = 8
let slot_size = 16

type t = { header : Ptr.t; capacity : int; flit : Flit.t }
type handle = { rt : Runtime.t; shared : t }

let create rt region ~capacity =
  if capacity < 1 then invalid_arg "Conc_list.create: capacity must be >= 1";
  let header = Runtime.alloc_in rt region (h_slots + (slot_size * capacity)) in
  Runtime.store_ptr rt ~site:s_hdr header ~off:h_head Ptr.null;
  Runtime.store_word rt ~site:s_hdr header ~off:h_cap (Int64.of_int capacity);
  { header; capacity; flit = Flit.create () }

let attach rt header =
  let capacity =
    Int64.to_int (Runtime.load_word rt ~site:s_hdr header ~off:h_cap)
  in
  { header; capacity; flit = Flit.create () }

let header t = t.header
let flit t = t.flit
let capacity t = t.capacity
let handle shared rt = { rt; shared }

let slot_off i = h_slots + (slot_size * i)
let slot_ptr shared i = Ptr.add shared.header (Int64.of_int (slot_off i))

(* Publish [key] in arena slot [slot].  Each slot must be used at most
   once per crash epoch. *)
let insert { rt; shared } ~slot ~key =
  if slot < 0 || slot >= shared.capacity then
    invalid_arg "Conc_list.insert: slot out of range";
  let node = slot_ptr shared slot in
  (* Payload first: the node is unreachable until the head swings. *)
  Runtime.store_word rt ~site:s_node shared.header ~off:(slot_off slot + o_key)
    key;
  Flit.writer_begin rt shared.flit node;
  (* Link + publish as one modeled atomic RMW: no other core's µ-events
     interleave between reading the head and swinging it. *)
  Runtime.atomically rt (fun () ->
      let head = Runtime.load_ptr rt ~site:s_node shared.header ~off:h_head in
      Runtime.store_ptr rt ~site:s_node shared.header
        ~off:(slot_off slot + o_next)
        head;
      Runtime.store_ptr rt ~site:s_hdr shared.header ~off:h_head node);
  Flit.writer_flush rt shared.flit node;
  Flit.writer_end rt shared.flit node

(* Walk the published chain, newest first.  Readers sync the header and
   every visited node through the FliT table.  The walk is bounded by
   the arena capacity, so a corrupted chain raises instead of hanging. *)
let iter { rt; shared } f =
  Flit.reader_sync rt shared.flit shared.header;
  let node = ref (Runtime.load_ptr rt ~site:s_hdr shared.header ~off:h_head) in
  let steps = ref 0 in
  while
    Runtime.branch rt ~site:s_iter
      (not (Runtime.ptr_is_null rt ~site:s_iter !node))
  do
    if !steps > shared.capacity then failwith "Conc_list: chain exceeds arena";
    incr steps;
    Flit.reader_sync rt shared.flit !node;
    f (Runtime.load_word rt ~site:s_iter !node ~off:o_key);
    node := Runtime.load_ptr rt ~site:s_iter !node ~off:o_next
  done

let size h =
  let n = ref 0 in
  iter h (fun _ -> incr n);
  !n

let mem h key =
  let found = ref false in
  iter h (fun k -> if k = key then found := true);
  !found

(* The chain as it would be recovered, with every word read through
   [read] (byte offset within the header object -> raw word).  The
   header must be the relative-format handle; stored node pointers are
   relative too, so the walk needs no live translation machinery.  The
   contract oracle passes a durable-value reader here to predict the
   exact post-crash contents under a buffered persistency model —
   including torn mid-drain chains where a drained head points at
   not-yet-drained (still zero) slots. *)
let keys_via ~capacity ~header read =
  let hdr_off = Ptr.offset_of header in
  let keys = ref [] in
  let node = ref (read h_head) in
  let steps = ref 0 in
  while not (Ptr.is_null !node) do
    if !steps > capacity then failwith "Conc_list: chain exceeds arena";
    incr steps;
    let off = Int64.to_int (Int64.sub (Ptr.offset_of !node) hdr_off) in
    keys := read (off + o_key) :: !keys;
    node := read (off + o_next)
  done;
  List.rev !keys

(* Recovery-side contents, newest first (no FliT traffic — the table
   died with the process). *)
let recovered_keys rt (t : t) =
  let site = s_iter in
  let keys = ref [] in
  let node = ref (Runtime.load_ptr rt ~site t.header ~off:h_head) in
  let steps = ref 0 in
  while not (Runtime.ptr_is_null rt ~site !node) do
    if !steps > t.capacity then failwith "Conc_list: chain exceeds arena";
    incr steps;
    keys := Runtime.load_word rt ~site !node ~off:o_key :: !keys;
    node := Runtime.load_ptr rt ~site !node ~off:o_next
  done;
  List.rev !keys
