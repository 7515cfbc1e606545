(* The SG benchmark: a scapegoat tree (alpha = 0.7).  No per-node
   balance metadata: inserts that land too deep trigger a search up the
   access path for a "scapegoat" ancestor whose subtree is then rebuilt
   perfectly balanced; deletions rebuild the whole tree when the size
   drops below alpha times its historical maximum. *)

open Bst

let name = "SG"
let description = "scapegoat tree, alpha = 0.7, subtree rebuilding"

let alpha = 0.7

(* Node layout: the 32-byte {!Bst} prefix alone. *)
let node_size = 32

(* Header layout after the {!Bst} prefix. *)
let h_max_size = 16

type t = Bst.t

let s_hdr = Site.make "sg.header"
let s_search = Site.make "sg.search"
let s_child = Site.make "sg.child"
let s_node = Site.make "sg.node"
let s_rebuild = Site.make "sg.rebuild"

let sites = { hdr = s_hdr; search = s_search; child = s_child; node = s_node }

let create rt region =
  let t = Bst.create ~header_size:(h_max_size + 8) sites rt region in
  Runtime.store_word rt ~site:s_hdr t.header ~off:h_max_size 0L;
  t

let attach = Bst.attach sites
let header = Bst.header
let size = Bst.size
let find = Bst.find
let iter = Bst.iter

let max_size t =
  Int64.to_int (Runtime.load_word t.rt ~site:s_hdr t.header ~off:h_max_size)

let set_max_size t n =
  Runtime.store_word t.rt ~site:s_hdr t.header ~off:h_max_size (Int64.of_int n)

(* Depth limit: floor(log_{1/alpha} size). *)
let depth_limit t n =
  Runtime.instr t.rt 5;
  if n <= 1 then 0
  else int_of_float (floor (log (float_of_int n) /. log (1.0 /. alpha)))

let rec subtree_size t node =
  if Runtime.branch t.rt ~site:s_rebuild (is_null t node) then 0
  else 1 + subtree_size t (left t node) + subtree_size t (right t node)

(* Flatten the subtree in order into an OCaml array of node pointers
   (compiler temporaries — stack data, not simulated memory). *)
let flatten t node =
  let acc = ref [] in
  let rec go node =
    if not (Runtime.branch t.rt ~site:s_rebuild (is_null t node)) then begin
      go (right t node);
      acc := node :: !acc;
      go (left t node)
    end
  in
  go node;
  Array.of_list !acc

(* Relink nodes [lo, hi) of the flattened array into a perfectly
   balanced subtree; returns its root. *)
let rec build_balanced t nodes lo hi =
  if lo >= hi then Ptr.null
  else begin
    let mid = (lo + hi) / 2 in
    let node = nodes.(mid) in
    Runtime.instr t.rt 3;
    set_left t node (build_balanced t nodes lo mid);
    set_right t node (build_balanced t nodes (mid + 1) hi);
    node
  end

let rebuild_subtree t node =
  let nodes = flatten t node in
  build_balanced t nodes 0 (Array.length nodes)

(* Replace [old_child] of [parent] (or the root) by [new_child]. *)
let replace_child t ~parent ~old_child ~new_child =
  match parent with
  | None -> set_root t new_child
  | Some p ->
      if Runtime.branch t.rt ~site:s_child (eq t (left t p) old_child) then
        set_left t p new_child
      else set_right t p new_child

let insert t ~key ~value =
  let rt = t.rt in
  match descend t key with
  | Some node, _ -> set_value t node value
  | None, path ->
      let node = alloc_node t ~size:node_size ~key ~value in
      link t path node ~key;
      let n = size t + 1 in
      set_size t n;
      if n > max_size t then set_max_size t n;
      let depth = List.length path in
      if Runtime.branch rt ~site:s_rebuild (depth > depth_limit t n) then begin
        (* Walk up the access path looking for the scapegoat: the first
           ancestor whose child on the path holds more than alpha of its
           subtree. *)
        let rec hunt child child_size = function
          | [] -> ()
          | anc :: rest ->
              let sibling =
                if eq t (left t anc) child then right t anc else left t anc
              in
              let anc_size = child_size + 1 + subtree_size t sibling in
              Runtime.instr rt 4;
              if
                Runtime.branch rt ~site:s_rebuild
                  (float_of_int child_size > alpha *. float_of_int anc_size)
              then begin
                let parent = match rest with [] -> None | p :: _ -> Some p in
                let rebuilt = rebuild_subtree t anc in
                replace_child t ~parent ~old_child:anc ~new_child:rebuilt
              end
              else hunt anc anc_size rest
        in
        hunt node 1 path
      end

let remove t key =
  let rt = t.rt in
  let removed = delete t key ~fix:Fun.id in
  if removed then begin
    let n = size t - 1 in
    set_size t n;
    Runtime.instr rt 3;
    if
      Runtime.branch rt ~site:s_rebuild
        (float_of_int n < alpha *. float_of_int (max_size t))
    then begin
      set_root t (rebuild_subtree t (root t));
      set_max_size t n
    end
  end;
  removed

(* BST order, size accounting and max_size covering the size. *)
let check_invariants t =
  let total = fold_ordered t ~name ~empty:0 (fun _ sl sr -> 1 + sl + sr) in
  if total <> size t then failwith "SG: size mismatch";
  if size t > max_size t then failwith "SG: size exceeds max_size"
