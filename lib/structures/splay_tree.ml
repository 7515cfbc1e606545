(* The Splay benchmark: a self-adjusting binary search tree with
   bottom-up splaying (zig / zig-zig / zig-zag) through parent pointers.
   Under the YCSB "latest" distribution the splaying keeps hot keys near
   the root — and writes to the root region on every operation, which is
   why the paper observes its largest HW overhead (~12 %) here. *)

open Bst

let name = "Splay"
let description = "splay tree, bottom-up splaying with parent pointers"

(* Node layout after the 32-byte {!Bst} prefix. *)
let o_parent = 32
let node_size = 40

type t = Bst.t

let s_hdr = Site.make "splay.header"
let s_search = Site.make "splay.search"
let s_child = Site.make "splay.child"
let s_node = Site.make "splay.node"
let s_rot = Site.make "splay.rotate"
let s_splay = Site.make "splay.splay"

let sites = { hdr = s_hdr; search = s_search; child = s_child; node = s_node }
let create rt region = Bst.create sites rt region
let attach = Bst.attach sites
let header = Bst.header
let size = Bst.size
let iter = Bst.iter

let parent t n = Runtime.load_ptr t.rt ~site:s_child n ~off:o_parent
let set_parent t n v = Runtime.store_ptr t.rt ~site:s_child n ~off:o_parent v

(* Make [node] the root: the header link plus a cleared parent link. *)
let make_root t node =
  set_root t node;
  if not (Runtime.branch t.rt ~site:s_hdr (is_null t node)) then
    set_parent t node Ptr.null

(* Rotate [x] up over its parent, preserving BST order and fixing the
   grandparent link. *)
let rotate t x =
  let rt = t.rt in
  let p = parent t x in
  let g = parent t p in
  let x_is_left = eq t x (left t p) in
  if Runtime.branch rt ~site:s_rot x_is_left then begin
    let b = right t x in
    set_left t p b;
    if not (Runtime.branch rt ~site:s_rot (is_null t b)) then set_parent t b p;
    set_right t x p
  end
  else begin
    let b = left t x in
    set_right t p b;
    if not (Runtime.branch rt ~site:s_rot (is_null t b)) then set_parent t b p;
    set_left t x p
  end;
  set_parent t p x;
  set_parent t x g;
  if Runtime.branch rt ~site:s_rot (is_null t g) then set_root t x
  else if Runtime.branch rt ~site:s_rot (eq t p (left t g)) then set_left t g x
  else set_right t g x

(* Splay [x] to the root. *)
let splay t x =
  let rt = t.rt in
  let continue = ref true in
  while !continue do
    let p = parent t x in
    if Runtime.branch rt ~site:s_splay (is_null t p) then continue := false
    else begin
      let g = parent t p in
      if Runtime.branch rt ~site:s_splay (is_null t g) then rotate t x (* zig *)
      else begin
        let p_is_left = eq t p (left t g) in
        let x_is_left = eq t x (left t p) in
        Runtime.instr rt 1;
        if Runtime.branch rt ~site:s_splay (p_is_left = x_is_left) then begin
          (* zig-zig: rotate parent first *)
          rotate t p;
          rotate t x
        end
        else begin
          (* zig-zag: rotate x twice *)
          rotate t x;
          rotate t x
        end
      end
    end
  done

(* A search splays the node holding the key, or on a miss the last
   node visited. *)
let find t key =
  match descend t key with
  | Some node, _ ->
      splay t node;
      Some (value t node)
  | None, last :: _ ->
      splay t last;
      None
  | None, [] -> None

let insert t ~key ~value =
  let rt = t.rt in
  match descend t key with
  | Some node, _ ->
      set_value t node value;
      splay t node
  | None, path ->
      let node = alloc_node t ~size:node_size ~key ~value in
      (match path with
      | [] ->
          Runtime.store_ptr rt ~site:s_node node ~off:o_parent Ptr.null;
          make_root t node
      | p :: _ ->
          Runtime.store_ptr rt ~site:s_node node ~off:o_parent p;
          link t path node ~key;
          splay t node);
      set_size t (size t + 1)

(* Splay the maximum of the subtree rooted at [node] to that subtree's
   root (the subtree is detached: its root has a null parent). *)
let splay_max t node =
  let rec go n =
    let r = right t n in
    if Runtime.branch t.rt ~site:s_search (is_null t r) then n else go r
  in
  let m = go node in
  splay t m;
  m

let remove t key =
  let rt = t.rt in
  match descend t key with
  | None, last :: _ ->
      splay t last;
      false
  | None, [] -> false
  | Some node, _ ->
      splay t node;
      let l = left t node in
      let r = right t node in
      (if Runtime.branch rt ~site:s_search (is_null t l) then make_root t r
       else begin
         set_parent t l Ptr.null;
         let m = splay_max t l in
         (* m is now the root of the left subtree and has no right child. *)
         set_right t m r;
         if not (Runtime.branch rt ~site:s_search (is_null t r)) then
           set_parent t r m;
         make_root t m
       end);
      Runtime.dealloc rt node;
      set_size t (size t - 1);
      true

(* BST order, parent-link symmetry and size. *)
let check_invariants t =
  let rt = t.rt in
  let count = ref 0 in
  let rec check node expected_parent lo hi =
    if not (Runtime.ptr_is_null rt ~site:s_search node) then begin
      incr count;
      let k = Runtime.load_word rt ~site:s_node node ~off:o_key in
      (match lo with
      | Some l when k <= l -> failwith "Splay: BST order violated (low)"
      | _ -> ());
      (match hi with
      | Some h when k >= h -> failwith "Splay: BST order violated (high)"
      | _ -> ());
      if not (eq t (parent t node) expected_parent) then
        failwith "Splay: parent link broken";
      check (left t node) node lo (Some k);
      check (right t node) node (Some k) hi
    end
  in
  check (root t) Ptr.null None None;
  if !count <> size t then failwith "Splay: size mismatch"
