(* Summary statistics for host timings. Quartiles follow Python's
   [statistics.quantiles(values, n=4)] (the default "exclusive"
   method), so they match what other tools compute from the same
   samples. *)

let sorted xs = Array.of_list (List.sort compare xs)

let median = function
  | [] -> invalid_arg "Stats.median: no samples"
  | xs ->
      let a = sorted xs in
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quantiles ?(n = 4) xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quantiles: need at least two samples";
  let m = ld + 1 in
  List.init (n - 1) (fun k ->
      let i = k + 1 in
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n)

(* Median of the smaller half of the samples. Host contention (a busy
   neighbour on a shared core) only ever lengthens a timing, so the
   faster half estimates the program's own cost, and taking its median
   keeps a single lucky sample from deciding it. *)
let fast_half_median = function
  | [] -> invalid_arg "Stats.fast_half_median: no samples"
  | xs ->
      let a = sorted xs in
      median (Array.to_list (Array.sub a 0 ((Array.length a + 1) / 2)))

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. Returns the value and how many samples
   lie beyond its rank. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n /. 100.))) in
  (a.(min n rank - 1), n - min n rank)

(* The highest of the usual reporting percentiles that still has at
   least [beyond] samples past it; a tail percentile resting on fewer
   samples is noise. [None] when even the median lacks them. *)
let tail_percentile ?(beyond = 10) xs =
  List.fold_left
    (fun acc p ->
      if xs = [] then acc
      else
        let v, past = percentile xs p in
        if past >= beyond then Some (p, v) else acc)
    None [ 50.; 90.; 99.; 99.9 ]

let geomean = function
  | [] -> invalid_arg "Stats.geomean: no samples"
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))
