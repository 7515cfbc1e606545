(* The RB benchmark: a classic red-black tree (CLRS-style) with parent
   pointers.  NULL plays the role of the nil sentinel and is considered
   black; the delete fixup therefore tracks the parent of the current
   node explicitly. *)

open Bst

let name = "RB"
let description = "red-black tree with parent pointers"

(* Node layout after the 32-byte {!Bst} prefix. *)
let o_parent = 32
let o_color = 40
let node_size = 48

let red = 0L
let black = 1L

type t = Bst.t

let s_hdr = Site.make "rb.header"
let s_search = Site.make "rb.search"
let s_child = Site.make "rb.child"
let s_node = Site.make "rb.node"
let s_rot = Site.make "rb.rotate"
let s_fix = Site.make "rb.fixup"

let sites = { hdr = s_hdr; search = s_search; child = s_child; node = s_node }
let create rt region = Bst.create sites rt region
let attach = Bst.attach sites
let header = Bst.header
let size = Bst.size
let find = Bst.find
let iter = Bst.iter

let parent t n = Runtime.load_ptr t.rt ~site:s_child n ~off:o_parent
let set_parent t n v = Runtime.store_ptr t.rt ~site:s_child n ~off:o_parent v

(* NULL is black. *)
let color t n =
  if Runtime.branch t.rt ~site:s_fix (is_null t n) then black
  else Runtime.load_word t.rt ~site:s_node n ~off:o_color

let set_color t n c = Runtime.store_word t.rt ~site:s_node n ~off:o_color c
let is_red t n = Int64.equal (color t n) red

let left_rotate t x =
  let rt = t.rt in
  let y = right t x in
  let b = left t y in
  set_right t x b;
  if not (Runtime.branch rt ~site:s_rot (is_null t b)) then set_parent t b x;
  let p = parent t x in
  set_parent t y p;
  if Runtime.branch rt ~site:s_rot (is_null t p) then set_root t y
  else if Runtime.branch rt ~site:s_rot (eq t x (left t p)) then set_left t p y
  else set_right t p y;
  set_left t y x;
  set_parent t x y

let right_rotate t x =
  let rt = t.rt in
  let y = left t x in
  let b = right t y in
  set_left t x b;
  if not (Runtime.branch rt ~site:s_rot (is_null t b)) then set_parent t b x;
  let p = parent t x in
  set_parent t y p;
  if Runtime.branch rt ~site:s_rot (is_null t p) then set_root t y
  else if Runtime.branch rt ~site:s_rot (eq t x (right t p)) then
    set_right t p y
  else set_left t p y;
  set_right t y x;
  set_parent t x y

let insert_fixup t z0 =
  let rt = t.rt in
  let z = ref z0 in
  while Runtime.branch rt ~site:s_fix (is_red t (parent t !z)) do
    let p = parent t !z in
    let g = parent t p in
    if Runtime.branch rt ~site:s_fix (eq t p (left t g)) then begin
      let u = right t g in
      if Runtime.branch rt ~site:s_fix (is_red t u) then begin
        set_color t p black;
        set_color t u black;
        set_color t g red;
        z := g
      end
      else begin
        (if Runtime.branch rt ~site:s_fix (eq t !z (right t p)) then begin
           z := p;
           left_rotate t !z
         end);
        let p = parent t !z in
        let g = parent t p in
        set_color t p black;
        set_color t g red;
        right_rotate t g
      end
    end
    else begin
      let u = left t g in
      if Runtime.branch rt ~site:s_fix (is_red t u) then begin
        set_color t p black;
        set_color t u black;
        set_color t g red;
        z := g
      end
      else begin
        (if Runtime.branch rt ~site:s_fix (eq t !z (left t p)) then begin
           z := p;
           right_rotate t !z
         end);
        let p = parent t !z in
        let g = parent t p in
        set_color t p black;
        set_color t g red;
        left_rotate t g
      end
    end
  done;
  set_color t (root t) black

let insert t ~key ~value =
  let rt = t.rt in
  match descend t key with
  | Some node, _ -> set_value t node value
  | None, path ->
      let z = alloc_node t ~size:node_size ~key ~value in
      set_color t z red;
      let p = match path with p :: _ -> p | [] -> Ptr.null in
      Runtime.store_ptr rt ~site:s_node z ~off:o_parent p;
      link t path z ~key;
      insert_fixup t z;
      set_size t (size t + 1)

(* Replace subtree [u] by subtree [v] (v may be NULL). *)
let transplant t u v =
  let rt = t.rt in
  let p = parent t u in
  if Runtime.branch rt ~site:s_fix (is_null t p) then set_root t v
  else if Runtime.branch rt ~site:s_fix (eq t u (left t p)) then set_left t p v
  else set_right t p v;
  if not (Runtime.branch rt ~site:s_fix (is_null t v)) then set_parent t v p

let rec minimum t node =
  let l = left t node in
  if Runtime.branch t.rt ~site:s_search (is_null t l) then node
  else minimum t l

(* Delete fixup with explicit parent tracking, since NULL stands in for
   the nil sentinel. *)
let delete_fixup t x0 xp0 =
  let rt = t.rt in
  let x = ref x0 and xp = ref xp0 in
  while
    Runtime.branch rt ~site:s_fix
      ((not (eq t !x (root t))) && not (is_red t !x))
  do
    if Runtime.branch rt ~site:s_fix (eq t !x (left t !xp)) then begin
      let w = ref (right t !xp) in
      (if Runtime.branch rt ~site:s_fix (is_red t !w) then begin
         set_color t !w black;
         set_color t !xp red;
         left_rotate t !xp;
         w := right t !xp
       end);
      if
        Runtime.branch rt ~site:s_fix
          ((not (is_red t (left t !w))) && not (is_red t (right t !w)))
      then begin
        set_color t !w red;
        x := !xp;
        xp := parent t !x
      end
      else begin
        (if Runtime.branch rt ~site:s_fix (not (is_red t (right t !w)))
         then begin
           set_color t (left t !w) black;
           set_color t !w red;
           right_rotate t !w;
           w := right t !xp
         end);
        set_color t !w (color t !xp);
        set_color t !xp black;
        if not (Runtime.branch rt ~site:s_fix (is_null t (right t !w))) then
          set_color t (right t !w) black;
        left_rotate t !xp;
        x := root t;
        xp := Ptr.null
      end
    end
    else begin
      let w = ref (left t !xp) in
      (if Runtime.branch rt ~site:s_fix (is_red t !w) then begin
         set_color t !w black;
         set_color t !xp red;
         right_rotate t !xp;
         w := left t !xp
       end);
      if
        Runtime.branch rt ~site:s_fix
          ((not (is_red t (left t !w))) && not (is_red t (right t !w)))
      then begin
        set_color t !w red;
        x := !xp;
        xp := parent t !x
      end
      else begin
        (if Runtime.branch rt ~site:s_fix (not (is_red t (left t !w)))
         then begin
           set_color t (right t !w) black;
           set_color t !w red;
           left_rotate t !w;
           w := left t !xp
         end);
        set_color t !w (color t !xp);
        set_color t !xp black;
        if not (Runtime.branch rt ~site:s_fix (is_null t (left t !w))) then
          set_color t (left t !w) black;
        right_rotate t !xp;
        x := root t;
        xp := Ptr.null
      end
    end
  done;
  if not (Runtime.branch rt ~site:s_fix (is_null t !x)) then
    set_color t !x black

let remove t key =
  let rt = t.rt in
  match descend t key with
  | None, _ -> false
  | Some z, _ ->
      let y_color = ref (color t z) in
      let x = ref Ptr.null and xp = ref Ptr.null in
      let zl = left t z and zr = right t z in
      (if Runtime.branch rt ~site:s_search (is_null t zl) then begin
         x := zr;
         xp := parent t z;
         transplant t z zr
       end
       else if Runtime.branch rt ~site:s_search (is_null t zr) then begin
         x := zl;
         xp := parent t z;
         transplant t z zl
       end
       else begin
         let y = minimum t zr in
         y_color := color t y;
         x := right t y;
         if Runtime.branch rt ~site:s_fix (eq t (parent t y) z) then xp := y
         else begin
           xp := parent t y;
           transplant t y (right t y);
           set_right t y (right t z);
           set_parent t (right t y) y
         end;
         transplant t z y;
         set_left t y (left t z);
         set_parent t (left t y) y;
         set_color t y (color t z)
       end);
      if Runtime.branch rt ~site:s_fix (Int64.equal !y_color black) then
        delete_fixup t !x !xp;
      Runtime.dealloc rt z;
      set_size t (size t - 1);
      true

(* Full red-black invariants: BST order, no red node with a red child,
   equal black height on every path, black root, parent links, size. *)
let check_invariants t =
  let rt = t.rt in
  let count = ref 0 in
  let rec check node expected_parent lo hi =
    if Runtime.ptr_is_null rt ~site:s_search node then 1
    else begin
      incr count;
      let k = Runtime.load_word rt ~site:s_node node ~off:o_key in
      (match lo with
      | Some l when k <= l -> failwith "RB: BST order violated (low)"
      | _ -> ());
      (match hi with
      | Some h when k >= h -> failwith "RB: BST order violated (high)"
      | _ -> ());
      if not (eq t (parent t node) expected_parent) then
        failwith "RB: parent link broken";
      let c = Runtime.load_word rt ~site:s_node node ~off:o_color in
      if Int64.equal c red then begin
        if is_red t (left t node) || is_red t (right t node) then
          failwith "RB: red node with red child"
      end;
      let bl = check (left t node) node lo (Some k) in
      let br = check (right t node) node (Some k) hi in
      if bl <> br then failwith "RB: unequal black heights";
      bl + (if Int64.equal c black then 1 else 0)
    end
  in
  let r = root t in
  if not (Runtime.ptr_is_null rt ~site:s_search r) then begin
    if is_red t r then failwith "RB: red root";
    ignore (check r Ptr.null None None)
  end;
  if !count <> size t then failwith "RB: size mismatch"
