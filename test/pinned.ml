(* Run a modelcheck harness the way the tests do: 2,000 ops on each of
   seeds 1-3, failing with the first violation found. *)

module Engine = Nvml_modelcheck.Engine

let clean what harness =
  for seed = 1 to 3 do
    match (Engine.run harness ~ops:2000 ~seed).Engine.violation with
    | None -> ()
    | Some v -> Alcotest.failf "%s, seed %d: %s" what seed v.Engine.message
  done

(* A quick test case named [name] that runs [harness] clean. *)
let test_case name harness =
  Alcotest.test_case name `Quick (fun () -> clean name harness)
