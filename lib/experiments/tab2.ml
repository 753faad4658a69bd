module Trace = Msp430.Trace

(* Table 2 — FRAM accesses and unstalled CPU cycles per benchmark for
   the baseline, block cache and SwapRAM (simulator statistics).
   Shape to reproduce: SwapRAM eliminates ~2/3 of FRAM accesses for a
   few-percent cycle overhead; the block cache reduces accesses far
   less while inflating cycle counts by ~half. *)

type system_cells = { fram_accesses : int option; cycles : int option }
(* None = DNF *)

type row = {
  benchmark : Workloads.Bench_def.t;
  baseline : system_cells;
  block : system_cells;
  swapram : system_cells;
}

type t = row list

let cells_of_outcome = function
  | Toolchain.Completed r ->
      {
        fram_accesses = Some (Trace.fram_accesses r.Toolchain.stats);
        cycles = Some r.Toolchain.stats.Trace.unstalled_cycles;
      }
  | Toolchain.Crashed o -> failwith ("tab2: " ^ Report.outcome_cell o)
  | Toolchain.Did_not_fit _ -> { fram_accesses = None; cycles = None }

(* The rows of a 24 MHz {!Sweep}. *)
let compute (sweep : Sweep.t) =
  List.map
    (fun (e : Sweep.entry) ->
      {
        benchmark = e.Sweep.benchmark;
        baseline = cells_of_outcome (Toolchain.Completed e.Sweep.baseline);
        block = cells_of_outcome e.Sweep.block;
        swapram = cells_of_outcome e.Sweep.swapram;
      })
    sweep

let cell ~vs = function
  | None -> "DNF"
  | Some v -> (
      match vs with
      | Some base when base > 0 ->
          Printf.sprintf "%s (%s)" (Report.millions v) (Report.pct ~vs:base v)
      | _ -> Report.millions v)

let geo_delta rows ~get =
  let ratios =
    List.filter_map
      (fun r ->
        match (get r, r.baseline) with
        | { fram_accesses = Some v; _ }, { fram_accesses = Some b; _ } when b > 0
          ->
            Some (float_of_int v /. float_of_int b)
        | _ -> None)
      rows
  in
  Report.geo_mean ratios

let geo_delta_cycles rows ~get =
  let ratios =
    List.filter_map
      (fun r ->
        match (get r, r.baseline) with
        | { cycles = Some v; _ }, { cycles = Some b; _ } when b > 0 ->
            Some (float_of_int v /. float_of_int b)
        | _ -> None)
      rows
  in
  Report.geo_mean ratios

let render t =
  let header =
    [ "benchmark"; "base FRAM (M)"; "block FRAM (M)"; "swapram FRAM (M)";
      "base cyc (M)"; "block cyc (M)"; "swapram cyc (M)" ]
  in
  let rows =
    List.map
      (fun r ->
        [
          r.benchmark.Workloads.Bench_def.name;
          cell ~vs:None r.baseline.fram_accesses;
          cell ~vs:r.baseline.fram_accesses r.block.fram_accesses;
          cell ~vs:r.baseline.fram_accesses r.swapram.fram_accesses;
          (match r.baseline.cycles with Some v -> Report.millions v | None -> "DNF");
          (match (r.block.cycles, r.baseline.cycles) with
          | Some v, Some b -> Printf.sprintf "%s (%s)" (Report.millions v) (Report.pct ~vs:b v)
          | _ -> "DNF");
          (match (r.swapram.cycles, r.baseline.cycles) with
          | Some v, Some b -> Printf.sprintf "%s (%s)" (Report.millions v) (Report.pct ~vs:b v)
          | _ -> "DNF");
        ])
      t
  in
  let summary =
    Printf.sprintf
      "geo-mean deltas: block FRAM %+.0f%%, swapram FRAM %+.0f%%, block \
       cycles %+.0f%%, swapram cycles %+.1f%%\n"
      (100.0 *. (geo_delta t ~get:(fun r -> r.block) -. 1.0))
      (100.0 *. (geo_delta t ~get:(fun r -> r.swapram) -. 1.0))
      (100.0 *. (geo_delta_cycles t ~get:(fun r -> r.block) -. 1.0))
      (100.0 *. (geo_delta_cycles t ~get:(fun r -> r.swapram) -. 1.0))
  in
  Report.heading "Table 2: FRAM accesses and unstalled cycles (simulator)"
  ^ Report.table ~aligns:[ Report.Left ] (header :: rows)
  ^ "\n" ^ summary
