(* The AVL benchmark: a height-balanced binary search tree with
   recursive insert/remove and single/double rotations. *)

open Bst

let name = "AVL"
let description = "AVL tree, recursive rebalancing"

(* Node layout after the 32-byte {!Bst} prefix. *)
let o_height = 32
let node_size = 40

type t = Bst.t

let s_hdr = Site.make "avl.header"
let s_search = Site.make "avl.search"
let s_child = Site.make "avl.child"
let s_node = Site.make "avl.node"
let s_rot = Site.make "avl.rotate"
let s_bal = Site.make "avl.balance"

let sites = { hdr = s_hdr; search = s_search; child = s_child; node = s_node }
let create rt region = Bst.create sites rt region
let attach = Bst.attach sites
let header = Bst.header
let size = Bst.size
let find = Bst.find
let iter = Bst.iter

let height t node =
  if Runtime.branch t.rt ~site:s_bal (is_null t node) then 0
  else Int64.to_int (Runtime.load_word t.rt ~site:s_node node ~off:o_height)

let update_height t node =
  let hl = height t (left t node) in
  let hr = height t (right t node) in
  Runtime.instr t.rt 2;
  Runtime.store_word t.rt ~site:s_node node ~off:o_height
    (Int64.of_int (1 + max hl hr))

let balance_factor t node =
  let hl = height t (left t node) in
  let hr = height t (right t node) in
  Runtime.instr t.rt 1;
  hl - hr

(*      y            x
       / \          / \
      x   C  -->   A   y
     / \              / \
    A   B            B   C   *)
let rotate_right t y =
  let rt = t.rt in
  let x = Runtime.load_ptr rt ~site:s_rot y ~off:o_left in
  let b = Runtime.load_ptr rt ~site:s_rot x ~off:o_right in
  Runtime.store_ptr rt ~site:s_rot y ~off:o_left b;
  Runtime.store_ptr rt ~site:s_rot x ~off:o_right y;
  update_height t y;
  update_height t x;
  x

let rotate_left t x =
  let rt = t.rt in
  let y = Runtime.load_ptr rt ~site:s_rot x ~off:o_right in
  let b = Runtime.load_ptr rt ~site:s_rot y ~off:o_left in
  Runtime.store_ptr rt ~site:s_rot x ~off:o_right b;
  Runtime.store_ptr rt ~site:s_rot y ~off:o_left x;
  update_height t x;
  update_height t y;
  y

(* Rebalance [node] after an insertion/removal in one of its subtrees;
   returns the (possibly new) subtree root. *)
let rebalance t node =
  let rt = t.rt in
  update_height t node;
  let bf = balance_factor t node in
  if Runtime.branch rt ~site:s_bal (bf > 1) then begin
    let l = left t node in
    if Runtime.branch rt ~site:s_bal (balance_factor t l < 0) then
      set_left t node (rotate_left t l);
    rotate_right t node
  end
  else if Runtime.branch rt ~site:s_bal (bf < -1) then begin
    let r = right t node in
    if Runtime.branch rt ~site:s_bal (balance_factor t r > 0) then
      set_right t node (rotate_right t r);
    rotate_left t node
  end
  else node

let insert t ~key ~value =
  let rt = t.rt in
  let added = ref false in
  let rec ins node =
    if Runtime.branch rt ~site:s_search (is_null t node) then begin
      added := true;
      let node = alloc_node t ~size:node_size ~key ~value in
      Runtime.store_word rt ~site:s_node node ~off:o_height 1L;
      node
    end
    else begin
      let k = Runtime.load_word rt ~site:s_search node ~off:o_key in
      Runtime.instr rt 1;
      if Runtime.branch rt ~site:s_search (Int64.equal key k) then begin
        set_value t node value;
        node
      end
      else if Runtime.branch rt ~site:s_search (key < k) then begin
        set_left t node (ins (left t node));
        rebalance t node
      end
      else begin
        set_right t node (ins (right t node));
        rebalance t node
      end
    end
  in
  set_root t (ins (root t));
  if !added then set_size t (size t + 1)

let remove t key =
  let removed = delete t key ~fix:(rebalance t) in
  if removed then set_size t (size t - 1);
  removed

(* BST ordering, recorded heights, AVL balance and size must all hold. *)
let check_invariants t =
  let count = ref 0 in
  let check node hl hr =
    incr count;
    if abs (hl - hr) > 1 then failwith "AVL: unbalanced node";
    let h = 1 + max hl hr in
    let stored =
      Int64.to_int (Runtime.load_word t.rt ~site:s_node node ~off:o_height)
    in
    if h <> stored then failwith "AVL: stale height";
    h
  in
  ignore (fold_ordered t ~name ~empty:0 check);
  if !count <> size t then failwith "AVL: size mismatch"
