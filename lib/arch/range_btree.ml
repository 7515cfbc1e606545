(* The VATB kernel table: a B-tree mapping virtual-address ranges to
   persistent pool IDs, as adopted from the Range TLB proposal the paper
   cites.  The VAW (virtual-address walker) performs a root-to-leaf
   descent; every node it touches costs one kernel-memory access, so
   [lookup] also reports the number of nodes visited.

   Ranges are keyed by their base address and never overlap (pool
   mappings are disjoint by construction).  Classic B-tree with minimum
   degree [degree]: every node except the root holds between degree-1
   and 2*degree-1 keys. *)

let degree = 4
let max_keys = (2 * degree) - 1
let min_keys = degree - 1

type entry = { base : int64; size : int64; pool : int }

type node = {
  mutable nkeys : int;
  keys : entry array; (* slots [0, nkeys) valid *)
  children : node option array; (* slots [0, nkeys] valid unless leaf *)
  mutable leaf : bool;
}

type t = { mutable root : node; mutable count : int }

let dummy_entry = { base = 0L; size = 0L; pool = -1 }

let new_node ~leaf =
  {
    nkeys = 0;
    keys = Array.make max_keys dummy_entry;
    children = Array.make (max_keys + 1) None;
    leaf;
  }

let create () = { root = new_node ~leaf:true; count = 0 }

let length t = t.count

let child n i =
  match n.children.(i) with
  | Some c -> c
  | None -> invalid_arg "Range_btree: missing child"

(* --- lookup ----------------------------------------------------------- *)

(* Find the range containing [va].  Returns the entry and the number of
   B-tree nodes visited during the descent. *)
let lookup t (va : int64) : (entry * int) option =
  let rec descend node visited =
    (* Find the first key with base > va; the candidate range is the one
       just before it. *)
    let rec scan i = if i < node.nkeys && node.keys.(i).base <= va then scan (i + 1) else i in
    let i = scan 0 in
    let candidate = if i > 0 then Some node.keys.(i - 1) else None in
    match candidate with
    | Some e when va < Int64.add e.base e.size -> Some (e, visited)
    | _ ->
        if node.leaf then None
        else descend (child node i) (visited + 1)
  in
  descend t.root 1

(* --- insertion ---------------------------------------------------------- *)

let split_child parent i =
  let full = child parent i in
  let right = new_node ~leaf:full.leaf in
  right.nkeys <- min_keys;
  Array.blit full.keys degree right.keys 0 min_keys;
  if not full.leaf then Array.blit full.children degree right.children 0 degree;
  full.nkeys <- min_keys;
  (* Shift parent's keys/children to make room. *)
  for j = parent.nkeys downto i + 1 do
    parent.keys.(j) <- parent.keys.(j - 1)
  done;
  for j = parent.nkeys + 1 downto i + 2 do
    parent.children.(j) <- parent.children.(j - 1)
  done;
  parent.keys.(i) <- full.keys.(min_keys);
  parent.children.(i + 1) <- Some right;
  parent.nkeys <- parent.nkeys + 1

let rec insert_nonfull node (e : entry) =
  let rec find i = if i < node.nkeys && node.keys.(i).base < e.base then find (i + 1) else i in
  let i = find 0 in
  if i < node.nkeys && Int64.equal node.keys.(i).base e.base then
    node.keys.(i) <- e (* replace: remap of the same base *)
  else if node.leaf then begin
    for j = node.nkeys downto i + 1 do
      node.keys.(j) <- node.keys.(j - 1)
    done;
    node.keys.(i) <- e;
    node.nkeys <- node.nkeys + 1
  end
  else begin
    let i =
      if (child node i).nkeys = max_keys then begin
        split_child node i;
        if e.base > node.keys.(i).base then i + 1 else i
      end
      else i
    in
    if i < node.nkeys && Int64.equal node.keys.(i).base e.base then
      node.keys.(i) <- e
    else insert_nonfull (child node i) e
  end

let insert t ~base ~size ~pool =
  if size <= 0L then invalid_arg "Range_btree.insert: non-positive size";
  let e = { base; size; pool } in
  let existed = lookup t base <> None in
  (if t.root.nkeys = max_keys then begin
     let new_root = new_node ~leaf:false in
     new_root.children.(0) <- Some t.root;
     t.root <- new_root;
     split_child new_root 0
   end);
  insert_nonfull t.root e;
  if not existed then t.count <- t.count + 1

(* --- deletion ----------------------------------------------------------- *)

let rec max_entry node =
  if node.leaf then node.keys.(node.nkeys - 1)
  else max_entry (child node node.nkeys)

let rec min_entry node =
  if node.leaf then node.keys.(0) else min_entry (child node 0)

(* Merge child i, parent key i and child i+1 into child i. *)
let merge_children node i =
  let left = child node i and right = child node (i + 1) in
  left.keys.(left.nkeys) <- node.keys.(i);
  Array.blit right.keys 0 left.keys (left.nkeys + 1) right.nkeys;
  if not left.leaf then
    Array.blit right.children 0 left.children (left.nkeys + 1)
      (right.nkeys + 1);
  left.nkeys <- left.nkeys + 1 + right.nkeys;
  for j = i to node.nkeys - 2 do
    node.keys.(j) <- node.keys.(j + 1)
  done;
  for j = i + 1 to node.nkeys - 1 do
    node.children.(j) <- node.children.(j + 1)
  done;
  node.children.(node.nkeys) <- None;
  node.nkeys <- node.nkeys - 1

(* Ensure child i of [node] has at least [degree] keys before descent. *)
let fill node i =
  if i > 0 && (child node (i - 1)).nkeys > min_keys then begin
    (* Borrow from the left sibling through the parent. *)
    let c = child node i and left = child node (i - 1) in
    for j = c.nkeys - 1 downto 0 do
      c.keys.(j + 1) <- c.keys.(j)
    done;
    if not c.leaf then
      for j = c.nkeys downto 0 do
        c.children.(j + 1) <- c.children.(j)
      done;
    c.keys.(0) <- node.keys.(i - 1);
    if not c.leaf then c.children.(0) <- left.children.(left.nkeys);
    node.keys.(i - 1) <- left.keys.(left.nkeys - 1);
    left.children.(left.nkeys) <- None;
    left.nkeys <- left.nkeys - 1;
    c.nkeys <- c.nkeys + 1;
    i
  end
  else if i < node.nkeys && (child node (i + 1)).nkeys > min_keys then begin
    (* Borrow from the right sibling. *)
    let c = child node i and right = child node (i + 1) in
    c.keys.(c.nkeys) <- node.keys.(i);
    if not c.leaf then c.children.(c.nkeys + 1) <- right.children.(0);
    node.keys.(i) <- right.keys.(0);
    for j = 0 to right.nkeys - 2 do
      right.keys.(j) <- right.keys.(j + 1)
    done;
    if not right.leaf then
      for j = 0 to right.nkeys - 1 do
        right.children.(j) <- right.children.(j + 1)
      done;
    right.children.(right.nkeys) <- None;
    right.nkeys <- right.nkeys - 1;
    c.nkeys <- c.nkeys + 1;
    i
  end
  else begin
    if i < node.nkeys then begin
      merge_children node i;
      i
    end
    else begin
      merge_children node (i - 1);
      i - 1
    end
  end

let rec remove_from node (base : int64) : bool =
  let rec find i = if i < node.nkeys && node.keys.(i).base < base then find (i + 1) else i in
  let i = find 0 in
  if i < node.nkeys && Int64.equal node.keys.(i).base base then
    if node.leaf then begin
      for j = i to node.nkeys - 2 do
        node.keys.(j) <- node.keys.(j + 1)
      done;
      node.nkeys <- node.nkeys - 1;
      true
    end
    else if (child node i).nkeys > min_keys then begin
      let pred = max_entry (child node i) in
      node.keys.(i) <- pred;
      remove_from (child node i) pred.base
    end
    else if (child node (i + 1)).nkeys > min_keys then begin
      let succ = min_entry (child node (i + 1)) in
      node.keys.(i) <- succ;
      remove_from (child node (i + 1)) succ.base
    end
    else begin
      merge_children node i;
      remove_from (child node i) base
    end
  else if node.leaf then false
  else begin
    let i = if (child node i).nkeys = min_keys then fill node i else i in
    (* After a fill the separator may have moved into child i. *)
    remove_from (child node (min i node.nkeys)) base
  end

let remove t (base : int64) : bool =
  let removed = remove_from t.root base in
  if removed then begin
    t.count <- t.count - 1;
    if t.root.nkeys = 0 && not t.root.leaf then t.root <- child t.root 0
  end;
  removed

(* --- diagnostics --------------------------------------------------------- *)

let rec node_height node =
  if node.leaf then 1 else 1 + node_height (child node 0)

let height t = node_height t.root

let to_list t =
  let rec walk node acc =
    if node.leaf then
      Array.to_list (Array.sub node.keys 0 node.nkeys) @ acc
    else begin
      let acc = ref acc in
      for i = node.nkeys downto 0 do
        acc := walk (child node i) !acc;
        if i > 0 then acc := node.keys.(i - 1) :: !acc
      done;
      !acc
    end
  in
  walk t.root []

(* Structural invariants, used by the property tests: key ordering,
   occupancy bounds, uniform leaf depth, non-overlapping ranges. *)
let check_invariants t =
  let rec check node ~is_root ~depth leaf_depth =
    if node.nkeys > max_keys then failwith "node overfull";
    if (not is_root) && node.nkeys < min_keys then failwith "node underfull";
    for i = 1 to node.nkeys - 1 do
      if node.keys.(i - 1).base >= node.keys.(i).base then
        failwith "keys out of order"
    done;
    if node.leaf then begin
      match !leaf_depth with
      | None -> leaf_depth := Some depth
      | Some d -> if d <> depth then failwith "leaves at different depths"
    end
    else
      for i = 0 to node.nkeys do
        let c = child node i in
        if i > 0 && c.keys.(0).base <= node.keys.(i - 1).base then
          failwith "child keys not greater than separator";
        if i < node.nkeys && c.keys.(c.nkeys - 1).base >= node.keys.(i).base
        then failwith "child keys not smaller than separator";
        check c ~is_root:false ~depth:(depth + 1) leaf_depth
      done
  in
  check t.root ~is_root:true ~depth:0 (ref None);
  (* Ranges must not overlap. *)
  let entries = to_list t in
  let rec disjoint = function
    | a :: (b :: _ as rest) ->
        if Int64.add a.base a.size > b.base then failwith "overlapping ranges";
        disjoint rest
    | _ -> ()
  in
  disjoint entries
