(* Model of the FRAM controller's hardware read cache.

   The MSP430FR2355 ships a small 2-way set-associative read cache of
   four 8-byte lines in front of the FRAM array (SLASEC4). Reads that
   hit avoid the FRAM wait states; misses fill a line. Writes bypass
   the cache (it is a read cache) but invalidate a matching line so
   that self-modifying code — which the software caching runtimes rely
   on — stays coherent. LRU replacement within each set.

   The geometry is the FR2355's and nothing else: line = addr / 8,
   set = line mod 2, tag = line / 2. State is one flat int array —
   slots 0-3 hold the tag of (set, way) at [2 * set + way] (-1 when
   invalid), slots 4-5 the least recently used way of each set — so a
   probe is two integer compares and no call. It runs on every counted
   FRAM access. *)

type t = int array

let lru_slot = 4

let create () =
  let c = Array.make 6 (-1) in
  c.(lru_slot) <- 0;
  c.(lru_slot + 1) <- 0;
  c

(* Read access; returns true on hit. A miss fills the LRU way. *)
let[@inline] read t addr =
  let line = addr lsr 3 in
  let set = line land 1 and tag = line lsr 1 in
  let base = set lsl 1 in
  if Array.unsafe_get t base = tag then begin
    Array.unsafe_set t (lru_slot + set) 1;
    true
  end
  else if Array.unsafe_get t (base + 1) = tag then begin
    Array.unsafe_set t (lru_slot + set) 0;
    true
  end
  else begin
    let victim = Array.unsafe_get t (lru_slot + set) in
    Array.unsafe_set t (base + victim) tag;
    Array.unsafe_set t (lru_slot + set) (1 - victim);
    false
  end

(* Write access: invalidate any matching line. *)
let[@inline] write t addr =
  let line = addr lsr 3 in
  let base = (line land 1) lsl 1 and tag = line lsr 1 in
  if Array.unsafe_get t base = tag then Array.unsafe_set t base (-1)
  else if Array.unsafe_get t (base + 1) = tag then
    Array.unsafe_set t (base + 1) (-1)

let flush t =
  Array.fill t 0 lru_slot (-1);
  t.(lru_slot) <- 0;
  t.(lru_slot + 1) <- 0
