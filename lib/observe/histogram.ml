(* Fixed-range bucketed counter for address-space access histograms.
   The range is divided into [buckets] equal-width bins; adds outside
   [lo, hi) are ignored (peripheral and unmapped addresses simply do
   not belong to the rendered address space). *)

type t = {
  lo : int;
  hi : int;
  counts : int array;
  mutable total : int;
  mutable clipped : int;
}

let create ~lo ~hi ~buckets =
  if hi <= lo then invalid_arg "Histogram.create: empty range";
  if buckets <= 0 then invalid_arg "Histogram.create: no buckets";
  { lo; hi; counts = Array.make buckets 0; total = 0; clipped = 0 }

(* The bucket is computed inline rather than returned as an option:
   this runs once per sampled memory access. *)
let add t addr =
  if addr < t.lo || addr >= t.hi then t.clipped <- t.clipped + 1
  else begin
    let n = Array.length t.counts in
    let b = (addr - t.lo) * n / (t.hi - t.lo) in
    (* Guard the exact-upper-edge rounding case. *)
    let b = if b > n - 1 then n - 1 else b in
    t.counts.(b) <- t.counts.(b) + 1;
    t.total <- t.total + 1
  end

let counts t = Array.copy t.counts
let total t = t.total
let clipped t = t.clipped
let lo t = t.lo
let hi t = t.hi
let buckets t = Array.length t.counts

let bucket_bytes t =
  (* Width of one bucket, rounded up so [buckets * bucket_bytes]
     covers the range. *)
  let span = t.hi - t.lo in
  (span + Array.length t.counts - 1) / Array.length t.counts

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0;
  t.clipped <- 0
