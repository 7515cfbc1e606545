(* The live-register window of the Section IV "keep relative
   opportunistically" optimization: a FIFO of the [capacity] most
   recently inserted distinct virtual addresses, each with the relative
   form it was materialized from.

   The window sits on the HW load/store-pointer path, so it is a fixed
   ring plus an exact chained index, and neither insert nor lookup
   allocates.  VAs are below 2^48 and fit an [int]; relative forms have
   bit 63 set, so they are stored unboxed as 8-byte words in [rels].
   [head.(b)] is the first slot whose VA hashes to bucket [b] and
   [next.(s)] the slot after [s] in its chain (-1 ends both).  The
   occupied slots are [oldest], [oldest + 1], ... [count] of them,
   modulo [capacity]. *)

let capacity = 32
let bucket_bits = 6

type t = {
  vas : int array;
  rels : Bytes.t;
  next : int array;
  head : int array;
  mutable oldest : int;
  mutable count : int;
}

let create () =
  {
    vas = Array.make capacity 0;
    rels = Bytes.make (capacity * 8) '\000';
    next = Array.make capacity (-1);
    head = Array.make (1 lsl bucket_bits) (-1);
    oldest = 0;
    count = 0;
  }

let clear t =
  Array.fill t.head 0 (Array.length t.head) (-1);
  t.oldest <- 0;
  t.count <- 0

(* Multiplicative hash: the top [bucket_bits] bits of the 63-bit product,
   so word-aligned VAs spread over every bucket. *)
let bucket va = (va * 0x2545F4914F6CDD1D) lsr (63 - bucket_bits)

let rec chain_find t va s =
  if s < 0 || Array.unsafe_get t.vas s = va then s
  else chain_find t va (Array.unsafe_get t.next s)

let find t va =
  let va = Int64.to_int va in
  chain_find t va (Array.unsafe_get t.head (bucket va))

let rel t slot = Bytes.get_int64_ne t.rels (slot * 8)

(* Remove slot [s] from its chain; [p] walks the chain to find the link
   that points at it. *)
let rec chain_unlink t s p =
  let n = t.next.(p) in
  if n = s then t.next.(p) <- t.next.(s) else chain_unlink t s n

let unlink t s =
  let b = bucket t.vas.(s) in
  if t.head.(b) = s then t.head.(b) <- t.next.(s)
  else chain_unlink t s t.head.(b)

let remember t ~va ~rel =
  let va = Int64.to_int va in
  let b = bucket va in
  if chain_find t va t.head.(b) < 0 then begin
    let s =
      if t.count < capacity then begin
        let s = (t.oldest + t.count) land (capacity - 1) in
        t.count <- t.count + 1;
        s
      end
      else begin
        let s = t.oldest in
        unlink t s;
        t.oldest <- (s + 1) land (capacity - 1);
        s
      end
    in
    t.vas.(s) <- va;
    Bytes.set_int64_ne t.rels (s * 8) rel;
    t.next.(s) <- t.head.(b);
    t.head.(b) <- s
  end
