(* Crash consistency with persistent transactions (paper, Sec. VI):
   a tiny "bank" whose account balances live in a pool.  A transfer
   must move money atomically — a crash between the debit and the
   credit would otherwise lose it.  The transfers are plain stores:
   [Txn.instrument] logs every pool store made inside a transaction,
   as the paper's compiler-inserted logging would, and the undo log
   (itself in the pool) heals the interrupted transfer on recovery.

     dune exec examples/txn_transfer.exe *)

module Runtime = Nvml_runtime.Runtime
module Txn = Nvml_runtime.Txn
module Site = Nvml_runtime.Site

let site = Site.make ~static:true "bank"

let balance rt accounts i = Runtime.load_word rt ~site accounts ~off:(i * 8)

let total rt accounts =
  let t = ref 0L in
  for i = 0 to 3 do
    t := Int64.add !t (balance rt accounts i)
  done;
  !t

let () =
  let rt = Runtime.create ~mode:Runtime.Hw () in
  let pool = Runtime.create_pool rt ~name:"bank" ~size:(1 lsl 20) in
  let accounts = Runtime.alloc rt ~pool ~persistent:true 32 in
  let txn = Txn.create rt ~pool () in
  Txn.instrument txn;
  Runtime.set_root rt ~site ~pool (Txn.header txn);
  for i = 0 to 3 do
    Runtime.store_word rt ~site accounts ~off:(i * 8) 1000L
  done;
  Fmt.pr "opening balances: 4 x 1000, total %Ld@." (total rt accounts);

  (* A committed transfer. *)
  Txn.run txn (fun () ->
      Runtime.store_word rt ~site accounts ~off:0
        (Int64.sub (balance rt accounts 0) 250L);
      Runtime.store_word rt ~site accounts ~off:8
        (Int64.add (balance rt accounts 1) 250L));
  Fmt.pr "after committed transfer of 250: [%Ld %Ld %Ld %Ld], total %Ld@."
    (balance rt accounts 0) (balance rt accounts 1) (balance rt accounts 2)
    (balance rt accounts 3) (total rt accounts);

  (* A transfer interrupted by a crash between debit and credit. *)
  Txn.begin_ txn;
  Runtime.store_word rt ~site accounts ~off:16
    (Int64.sub (balance rt accounts 2) 400L);
  Fmt.pr "debited 400 from account 2... and the machine dies.@.";
  Runtime.crash_and_restart rt;
  ignore (Runtime.open_pool rt "bank");
  let txn' = Txn.attach rt (Runtime.get_root rt ~site ~pool) in
  (match Txn.recover txn' with
  | Txn.Rolled_back n -> Fmt.pr "recovery rolled back %d logged store(s)@." n
  | Txn.Clean -> Fmt.pr "recovery found a clean log@.");
  Fmt.pr "after recovery: [%Ld %Ld %Ld %Ld], total %Ld@."
    (balance rt accounts 0) (balance rt accounts 1) (balance rt accounts 2)
    (balance rt accounts 3) (total rt accounts);
  assert (total rt accounts = 4000L);
  Fmt.pr "no money was created or destroyed.@."
