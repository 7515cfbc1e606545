(* Structure content snapshots: the ordered (key, value) image of a map,
   captured through its [iter].  The fault-injection checker compares a
   recovered structure against the pre- and post-transaction snapshots
   recorded on the reference run, so equality and first-divergence
   reporting live here rather than in every test. *)

type t = (int64 * int64) list

let capture iter =
  let acc = ref [] in
  iter (fun ~key ~value -> acc := (key, value) :: !acc);
  List.rev !acc

let size = List.length

let equal (a : t) (b : t) =
  try List.for_all2 (fun (ka, va) (kb, vb) -> ka = kb && va = vb) a b
  with Invalid_argument _ -> false

(* The first point where two snapshots diverge, for violation reports:
   [None] when equal. *)
let diff_summary (a : t) (b : t) =
  if equal a b then None
  else if size a <> size b then
    Some (Fmt.str "%d entries vs %d" (size a) (size b))
  else
    let rec first i a b =
      match (a, b) with
      | (ka, va) :: a', (kb, vb) :: b' ->
          if ka = kb && va = vb then first (i + 1) a' b'
          else
            Some
              (Fmt.str "entry %d: (%Ld, %Ld) vs (%Ld, %Ld)" i ka va kb vb)
      | _ -> None
    in
    first 0 a b
