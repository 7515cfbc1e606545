(* The binary-search-tree core of the RB, Splay, AVL and SG benchmarks,
   written once as Boost.Intrusive writes bstree_algorithms once for
   its rbtree, splaytree, avltree and sgtree: the node and header
   prefixes, the handle, the descent, node allocation and linking, the
   in-order walk and the successor-replacement delete.  Each tree keeps
   what differs (colours, splaying, heights, rebuilds) and its own
   sites: every access here is charged to one of the four sites the
   tree's handle carries, so the shared code makes exactly the loads,
   stores and branches of the tree's former copy. *)

module Runtime = Nvml_runtime.Runtime
module Site = Nvml_runtime.Site
module Ptr = Nvml_core.Ptr

(* Node prefix; a tree's own fields start at 32. *)
let o_key = 0
let o_value = 8
let o_left = 16
let o_right = 24

(* Header prefix; a tree's own fields start at 16. *)
let h_root = 0
let h_size = 8

(* The tree's sites for header fields, the descent and walks, child
   links and node fields. *)
type sites = { hdr : Site.t; search : Site.t; child : Site.t; node : Site.t }

type t = {
  rt : Runtime.t;
  region : Runtime.region;
  header : Ptr.t;
  sites : sites;
}

let create ?(header_size = 16) sites rt region =
  let header = Runtime.alloc_in rt region header_size in
  Runtime.store_ptr rt ~site:sites.hdr header ~off:h_root Ptr.null;
  Runtime.store_word rt ~site:sites.hdr header ~off:h_size 0L;
  { rt; region; header; sites }

let attach sites rt header =
  { rt; region = Runtime.region_of_ptr rt header; header; sites }

let header t = t.header

let size t =
  Int64.to_int (Runtime.load_word t.rt ~site:t.sites.hdr t.header ~off:h_size)

let set_size t n =
  Runtime.store_word t.rt ~site:t.sites.hdr t.header ~off:h_size
    (Int64.of_int n)

let root t = Runtime.load_ptr t.rt ~site:t.sites.hdr t.header ~off:h_root

let set_root t v =
  Runtime.store_ptr t.rt ~site:t.sites.hdr t.header ~off:h_root v

let is_null t n = Runtime.ptr_is_null t.rt ~site:t.sites.search n
let eq t a b = Runtime.ptr_eq t.rt ~site:t.sites.child a b
let left t n = Runtime.load_ptr t.rt ~site:t.sites.child n ~off:o_left
let right t n = Runtime.load_ptr t.rt ~site:t.sites.child n ~off:o_right
let set_left t n v = Runtime.store_ptr t.rt ~site:t.sites.child n ~off:o_left v

let set_right t n v =
  Runtime.store_ptr t.rt ~site:t.sites.child n ~off:o_right v

let value t n = Runtime.load_word t.rt ~site:t.sites.node n ~off:o_value

let set_value t n v =
  Runtime.store_word t.rt ~site:t.sites.node n ~off:o_value v

(* Walk down to [key]: [Some node] when it is present, else [None];
   paired with the nodes passed on the way, nearest first, so that on a
   miss the head of the path is the would-be parent of [key]. *)
let descend t key =
  let rt = t.rt and site = t.sites.search in
  let rec go node path =
    if Runtime.branch rt ~site (is_null t node) then (None, path)
    else
      let k = Runtime.load_word rt ~site node ~off:o_key in
      Runtime.instr rt 1;
      if Runtime.branch rt ~site (Int64.equal key k) then (Some node, path)
      else if Runtime.branch rt ~site (key < k) then
        go (left t node) (node :: path)
      else go (right t node) (node :: path)
  in
  go (root t) []

let find t key =
  match descend t key with
  | Some node, _ -> Some (value t node)
  | None, _ -> None

(* A fresh [size]-byte node with its prefix set: [key], [value] and no
   children.  The tree initialises its own fields. *)
let alloc_node t ~size ~key ~value =
  let rt = t.rt and site = t.sites.node in
  let node = Runtime.alloc_in rt t.region size in
  Runtime.store_word rt ~site node ~off:o_key key;
  Runtime.store_word rt ~site node ~off:o_value value;
  Runtime.store_ptr rt ~site node ~off:o_left Ptr.null;
  Runtime.store_ptr rt ~site node ~off:o_right Ptr.null;
  node

(* Hang [node], holding [key], under the head of a [descend] miss path,
   or make it the root when the path is empty. *)
let link t path node ~key =
  match path with
  | [] -> set_root t node
  | p :: _ ->
      let rt = t.rt and site = t.sites.search in
      let pk = Runtime.load_word rt ~site p ~off:o_key in
      Runtime.instr rt 1;
      if Runtime.branch rt ~site (key < pk) then set_left t p node
      else set_right t p node

let iter t f =
  let rt = t.rt and s = t.sites in
  let rec go node =
    if not (Runtime.ptr_is_null rt ~site:s.search node) then begin
      go (left t node);
      let key = Runtime.load_word rt ~site:s.node node ~off:o_key in
      let value = Runtime.load_word rt ~site:s.node node ~off:o_value in
      f ~key ~value;
      go (right t node)
    end
  in
  go (root t)

(* Recursive delete by successor replacement: a node with two children
   is replaced by its in-order successor.  [fix] runs on every subtree
   root on the way back up and returns the subtree's new root: AVL
   passes its rebalance, SG [Fun.id].  Returns whether [key] was
   present; the caller keeps the size. *)
let delete t key ~fix =
  let rt = t.rt and site = t.sites.search in
  (* Detach the minimum of a non-empty subtree: (new subtree root, the
     detached node). *)
  let rec detach_min node =
    let l = left t node in
    if Runtime.branch rt ~site (is_null t l) then (right t node, node)
    else begin
      let l', m = detach_min l in
      set_left t node l';
      (fix node, m)
    end
  in
  let removed = ref false in
  let rec del node =
    if Runtime.branch rt ~site (is_null t node) then node
    else begin
      let k = Runtime.load_word rt ~site node ~off:o_key in
      Runtime.instr rt 1;
      if Runtime.branch rt ~site (Int64.equal key k) then begin
        removed := true;
        let l = left t node and r = right t node in
        let replacement =
          if Runtime.branch rt ~site (is_null t l) then r
          else if Runtime.branch rt ~site (is_null t r) then l
          else begin
            let r', succ = detach_min r in
            set_left t succ l;
            set_right t succ r';
            fix succ
          end
        in
        Runtime.dealloc rt node;
        replacement
      end
      else if Runtime.branch rt ~site (key < k) then begin
        set_left t node (del (left t node));
        fix node
      end
      else begin
        set_right t node (del (right t node));
        fix node
      end
    end
  in
  set_root t (del (root t));
  !removed

(* The BST-order walk of an invariant check: fails with [name] when a
   key leaves its ancestors' bounds, and folds each node's subtree
   results with [combine node left right] ([empty] at NULL). *)
let fold_ordered t ~name ~empty combine =
  let rt = t.rt and s = t.sites in
  let rec go node lo hi =
    if Runtime.ptr_is_null rt ~site:s.search node then empty
    else begin
      let k = Runtime.load_word rt ~site:s.node node ~off:o_key in
      (match lo with
      | Some l when k <= l -> failwith (name ^ ": BST order violated (low)")
      | _ -> ());
      (match hi with
      | Some h when k >= h -> failwith (name ^ ": BST order violated (high)")
      | _ -> ());
      let l = go (left t node) lo (Some k) in
      let r = go (right t node) (Some k) hi in
      combine node l r
    end
  in
  go (root t) None None
