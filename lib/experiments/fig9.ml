module Platform = Msp430.Platform
module Energy = Msp430.Energy

(* Figure 9 (+ the §5.4 8 MHz numbers) — end-to-end execution speed
   and energy, normalized to the unified-memory baseline. Shape to
   reproduce: SwapRAM is substantially faster and lower-energy on
   every benchmark except AES (the thrashing outlier); the block
   cache is at best marginal and loses on average. *)

type cell = { speedup : float; energy_ratio : float } (* >1 speedup = faster *)

type row = {
  benchmark : Workloads.Bench_def.t;
  swapram : cell option;
  block : cell option;
}

type t = { frequency : Platform.frequency; rows : row list }

let cell_of base = function
  | Toolchain.Did_not_fit _ -> None
  | Toolchain.Crashed o -> failwith ("fig9: " ^ Report.outcome_cell o)
  | Toolchain.Completed r ->
      Some
        {
          speedup =
            base.Toolchain.energy.Energy.time_s
            /. r.Toolchain.energy.Energy.time_s;
          energy_ratio =
            r.Toolchain.energy.Energy.energy_nj
            /. base.Toolchain.energy.Energy.energy_nj;
        }

(* The rows of a {!Sweep} run at [frequency]. *)
let compute ~frequency (sweep : Sweep.t) =
  let rows =
    List.map
      (fun (e : Sweep.entry) ->
        {
          benchmark = e.Sweep.benchmark;
          swapram = cell_of e.Sweep.baseline e.Sweep.swapram;
          block = cell_of e.Sweep.baseline e.Sweep.block;
        })
      sweep
  in
  { frequency; rows }

let fmt_cell = function
  | None -> [ "DNF"; "DNF" ]
  | Some c ->
      [
        Printf.sprintf "%.2fx (%+.0f%%)" c.speedup ((c.speedup -. 1.0) *. 100.0);
        Printf.sprintf "%+.0f%%" ((c.energy_ratio -. 1.0) *. 100.0);
      ]

let averages rows get =
  let cells = List.filter_map get rows in
  if cells = [] then (1.0, 1.0)
  else
    ( Report.geo_mean (List.map (fun c -> c.speedup) cells),
      Report.geo_mean (List.map (fun c -> c.energy_ratio) cells) )

let render t =
  let header =
    [ "benchmark"; "SR speed"; "SR energy"; "BB speed"; "BB energy" ]
  in
  let rows =
    List.map
      (fun r ->
        (r.benchmark.Workloads.Bench_def.name :: fmt_cell r.swapram)
        @ fmt_cell r.block)
      t.rows
  in
  let sr_s, sr_e = averages t.rows (fun r -> r.swapram) in
  let bb_s, bb_e = averages t.rows (fun r -> r.block) in
  Report.heading
    (Printf.sprintf "Figure 9: end-to-end speed and energy at %s (vs unified baseline)"
       (Platform.frequency_name t.frequency))
  ^ Report.table ~aligns:[ Report.Left ] (header :: rows)
  ^ Printf.sprintf
      "\ngeo-mean: SwapRAM %+.0f%% speed, %+.0f%% energy; block cache %+.0f%% \
       speed, %+.0f%% energy\n"
      ((sr_s -. 1.0) *. 100.0)
      ((sr_e -. 1.0) *. 100.0)
      ((bb_s -. 1.0) *. 100.0)
      ((bb_e -. 1.0) *. 100.0)
