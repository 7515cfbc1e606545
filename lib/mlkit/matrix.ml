(* A dense row-major matrix in simulated memory — the Armadillo
   stand-in of the KNN case study.  A matrix is a compound object: a
   small header (data pointer plus shape metadata) and a separate data
   array, both in the matrix's region.  When the region is a pool, the
   header's data pointer is a persistent pointer and every element
   access dereferences it — the access pattern whose translation cost
   the case study measures. *)

module Runtime = Nvml_runtime.Runtime
module Site = Nvml_runtime.Site
module Ptr = Nvml_core.Ptr

(* Header layout. *)
let h_data = 0
let h_rows = 8
let h_cols = 16
let h_row_major = 24
let header_size = 32

type t = { rt : Runtime.t; region : Runtime.region; header : Ptr.t }

let s_hdr = Site.make "matrix.header"
let s_elem = Site.make "matrix.element"

let create rt region ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create: empty shape";
  let header = Runtime.alloc_in rt region header_size in
  let data = Runtime.alloc_in rt region (rows * cols * 8) in
  Runtime.store_ptr rt ~site:s_hdr header ~off:h_data data;
  Runtime.store_word rt ~site:s_hdr header ~off:h_rows (Int64.of_int rows);
  Runtime.store_word rt ~site:s_hdr header ~off:h_cols (Int64.of_int cols);
  Runtime.store_word rt ~site:s_hdr header ~off:h_row_major 1L;
  { rt; region; header }

let header t = t.header

let rows t =
  Int64.to_int (Runtime.load_word t.rt ~site:s_hdr t.header ~off:h_rows)

let cols t =
  Int64.to_int (Runtime.load_word t.rt ~site:s_hdr t.header ~off:h_cols)

(* Load the data pointer out of the header — the point where a
   persistent matrix's pointer is materialized for reuse. *)
let data t = Runtime.load_ptr t.rt ~site:s_hdr t.header ~off:h_data

let index t r c = ((r * cols t) + c) * 8

(* Element access through the header (loads the data pointer each call,
   like generic library code that only holds the object). *)
let get t r c =
  let d = data t in
  Runtime.load_f64 t.rt ~site:s_elem d ~off:(index t r c)

let set t r c v =
  let d = data t in
  Runtime.store_f64 t.rt ~site:s_elem d ~off:(index t r c) v

(* Element access through a pre-materialized data pointer — what a
   kernel's inner loop does after hoisting the load. *)
let get_via t ~data r c =
  Runtime.load_f64 t.rt ~site:s_elem data ~off:(index t r c)

let set_via t ~data r c v =
  Runtime.store_f64 t.rt ~site:s_elem data ~off:(index t r c) v

let of_arrays rt region (a : float array array) =
  let rows = Array.length a in
  if rows = 0 then invalid_arg "Matrix.of_arrays: empty";
  let cols = Array.length a.(0) in
  let m = create rt region ~rows ~cols in
  let d = data m in
  Array.iteri
    (fun r row ->
      if Array.length row <> cols then
        invalid_arg "Matrix.of_arrays: ragged rows";
      Array.iteri (fun c v -> set_via m ~data:d r c v) row)
    a;
  m

let to_arrays t =
  let d = data t in
  Array.init (rows t) (fun r ->
      Array.init (cols t) (fun c -> get_via t ~data:d r c))

let fill t v =
  let d = data t in
  for r = 0 to rows t - 1 do
    for c = 0 to cols t - 1 do
      set_via t ~data:d r c v
    done
  done
