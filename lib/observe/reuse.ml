(* Exact byte-weighted LRU reuse-distance tracker: the one Mattson
   stack in the repo. The live and replayed MRCs feed it per access,
   and the replay engine's all-budget LRU kernel feeds it the eligible
   runs of each bypass class.

   Maintains the LRU stack of cache units (functions for SwapRAM,
   fixed-size lines for the baseline and the block cache) as
   recency-ordered slots over a Fenwick partial-sum tree of unit byte
   sizes. Each access computes its byte-weighted stack distance: the
   total bytes of distinct units touched since the previous access to
   this unit, *including the unit itself* — i.e. the smallest LRU
   cache capacity at which this access would hit. A histogram of
   distances (access counts and the bytes those accesses would fill)
   then yields the exact misses and fill bytes for any hypothetical
   budget in one pass (Mattson's stack algorithm):
   misses(B) = cold + #\{distances > B\}.

   The common case — repeated access to the MRU unit, e.g. straight-
   line ifetch within one cache line, or the tail of a run — short-
   circuits without touching the tree, so cost is paid only on unit
   transitions: O(log units) each. A unit transition vacates the
   unit's old slot and claims the next higher one; when slots run out
   the stack is compacted in place (or the arrays grown if mostly
   live), so space stays proportional to distinct units, not to
   transitions. Unit ids are small dense ints and distances are
   bounded by the footprint, so per-unit and per-distance state live
   in growable arrays. *)

type t = {
  (* Fenwick tree over slots 1..cap: [fen.(i)] holds the sum of the
     [i land (-i)] slots ending at [i]; [fen_sum] is the whole-tree
     sum, so a stack distance is [fen_sum - prefix (slot - 1)]. *)
  mutable fen : int array;
  mutable fen_sum : int;
  mutable unit_at : int array;
      (* slot -> unit id, -1 when vacated; slots from [next] on are unclaimed and never read *)
  mutable size_at : int array; (* slot -> that unit's stacked bytes *)
  mutable slot_of : int array; (* unit -> its live slot, 0 when unseen *)
  mutable next : int; (* next unclaimed slot; slot order = recency *)
  mutable top : int; (* MRU unit id; -1 when empty *)
  mutable units : int; (* distinct units seen = live slots *)
  mutable depth_bytes : int; (* total bytes of distinct units seen *)
  mutable hist : int array; (* stack distance -> accesses *)
  mutable hist_bytes : int array; (* stack distance -> bytes of those accesses *)
  mutable cold : int; (* first-touch accesses: miss at any budget *)
  mutable accesses : int;
  mutable measured_misses : int;
}

let initial_slots = 1024

let create () =
  {
    fen = Array.make (initial_slots + 1) 0;
    fen_sum = 0;
    unit_at = Array.make (initial_slots + 1) (-1);
    size_at = Array.make (initial_slots + 1) 0;
    slot_of = Array.make 64 0;
    next = 1;
    top = -1;
    units = 0;
    depth_bytes = 0;
    hist = Array.make 1024 0;
    hist_bytes = Array.make 1024 0;
    cold = 0;
    accesses = 0;
    measured_misses = 0;
  }

(* [a] extended with zeros to at least [n] elements (doubling). *)
let grow a n =
  let a' = Array.make (max n (2 * Array.length a)) 0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let fen_add fen i delta =
  let n = Array.length fen - 1 in
  let i = ref i in
  while !i <= n do
    fen.(!i) <- fen.(!i) + delta;
    i := !i + (!i land - !i)
  done

let fen_prefix fen i =
  let i = ref i in
  let s = ref 0 in
  while !i > 0 do
    s := !s + fen.(!i);
    i := !i - (!i land - !i)
  done;
  !s

let record t d ~bytes ~count =
  if d >= Array.length t.hist then begin
    t.hist <- grow t.hist (d + 1);
    t.hist_bytes <- grow t.hist_bytes (d + 1)
  end;
  t.hist.(d) <- t.hist.(d) + count;
  t.hist_bytes.(d) <- t.hist_bytes.(d) + (count * bytes)

(* Renumber the live units into slots [1..live] in place (recency
   order preserved: ascending slot = ascending recency) and rebuild the
   tree in one linear pass, doubling the arrays first only when more
   than half the slots are live — so a compaction allocates nothing
   unless the stack has outgrown them. Amortized O(1) per transition:
   a compaction costs O(capacity) and frees at least half of it. *)
let compact t =
  let cap = Array.length t.unit_at - 1 in
  if 2 * t.units > cap then begin
    t.unit_at <- grow t.unit_at ((2 * cap) + 1);
    t.size_at <- grow t.size_at (Array.length t.unit_at);
    t.fen <- Array.make (Array.length t.unit_at) 0
  end;
  let live = ref 0 in
  for s = 1 to t.next - 1 do
    let u = t.unit_at.(s) in
    if u >= 0 then begin
      incr live;
      t.unit_at.(!live) <- u;
      t.size_at.(!live) <- t.size_at.(s);
      t.slot_of.(u) <- !live
    end
  done;
  t.next <- !live + 1;
  (* Each node holds its own slot's bytes plus its children's sums,
     which are complete by the time the ascending pass reaches it. *)
  let fen = t.fen in
  let n = Array.length fen - 1 in
  Array.fill fen 0 (n + 1) 0;
  Array.blit t.size_at 1 fen 1 !live;
  for i = 1 to n do
    let parent = i + (i land -i) in
    if parent <= n then fen.(parent) <- fen.(parent) + fen.(i)
  done

let push t unit_id bytes =
  if t.next >= Array.length t.unit_at then compact t;
  let s = t.next in
  t.next <- s + 1;
  t.unit_at.(s) <- unit_id;
  t.size_at.(s) <- bytes;
  fen_add t.fen s bytes;
  t.fen_sum <- t.fen_sum + bytes;
  t.slot_of.(unit_id) <- s;
  t.top <- unit_id

let access t ~unit_id ~bytes ~len =
  t.accesses <- t.accesses + len;
  if unit_id >= Array.length t.slot_of then
    t.slot_of <- grow t.slot_of (unit_id + 1);
  let s = t.slot_of.(unit_id) in
  if t.top = unit_id then
    (* MRU re-reference: every access of the run is charged the unit's
       own stacked size (its slot is left untouched). *)
    record t (max t.size_at.(s) bytes) ~bytes ~count:len
  else begin
    if s = 0 then begin
      t.cold <- t.cold + 1;
      t.units <- t.units + 1;
      t.depth_bytes <- t.depth_bytes + bytes
    end
    else begin
      (* Bytes of distinct units at or above this one on the stack:
         one suffix sum instead of an MRU-to-LRU walk. *)
      record t (t.fen_sum - fen_prefix t.fen (s - 1)) ~bytes ~count:1;
      fen_add t.fen s (-t.size_at.(s));
      t.fen_sum <- t.fen_sum - t.size_at.(s);
      t.unit_at.(s) <- -1
    end;
    push t unit_id bytes;
    (* The rest of the run re-references the now-MRU unit. *)
    if len > 1 then record t bytes ~bytes ~count:(len - 1)
  end

let note_measured_miss t = t.measured_misses <- t.measured_misses + 1
let accesses t = t.accesses
let units t = t.units
let footprint t = t.depth_bytes
let cold_misses t = t.cold
let measured_misses t = t.measured_misses

(* One descending sweep of the histograms: the counts and bytes of
   distances above each budget accumulate as the sweep passes it. *)
let at_budgets t budgets =
  let out = Array.make (Array.length budgets) (0, 0) in
  let d = ref (Array.length t.hist - 1) in
  let misses = ref t.cold and fill = ref t.depth_bytes in
  for j = Array.length budgets - 1 downto 0 do
    while !d >= 0 && !d > budgets.(j) do
      misses := !misses + t.hist.(!d);
      fill := !fill + t.hist_bytes.(!d);
      decr d
    done;
    out.(j) <- (!misses, !fill)
  done;
  out

let predicted_misses t ~budget = fst (at_budgets t [| budget |]).(0)
let fill_bytes t ~budget = snd (at_budgets t [| budget |]).(0)

let fold_stack t ~init f =
  let acc = ref init in
  for s = t.next - 1 downto 1 do
    if t.unit_at.(s) >= 0 then acc := f !acc t.size_at.(s)
  done;
  !acc

let rate t misses =
  if t.accesses = 0 then 0.0
  else float_of_int misses /. float_of_int t.accesses

let predicted_miss_rate t ~budget = rate t (predicted_misses t ~budget)
let measured_miss_rate t = rate t t.measured_misses

let curve t ~budgets =
  List.map (fun b -> (b, predicted_miss_rate t ~budget:b)) budgets
