module Trace = Msp430.Trace

(* Figure 8 — dynamic instruction source breakdown: where every
   executed instruction was fetched from (application code in FRAM or
   SRAM, the caching runtime, the copy loop), normalized to the
   baseline's instruction count. Shape to reproduce: SwapRAM executes
   the vast majority of application instructions from SRAM with a
   few-percent instrumentation overhead; the block cache avoids FRAM
   app execution but inflates the dynamic instruction count. *)

type breakdown = {
  app_fram : int;
  app_sram : int;
  handler : int;
  memcpy : int;
  total : int;
}

type row = {
  benchmark : Workloads.Bench_def.t;
  base_total : int;
  swapram : breakdown option;
  block : breakdown option;
}

type t = row list

let breakdown_of = function
  | Toolchain.Did_not_fit _ -> None
  | Toolchain.Crashed o -> failwith ("fig8: " ^ Report.outcome_cell o)
  | Toolchain.Completed r ->
      let s = r.Toolchain.stats in
      let get src = s.Trace.instr_by_source.(Trace.source_index src) in
      Some
        {
          app_fram = get Trace.App_fram;
          app_sram = get Trace.App_sram;
          handler = get Trace.Handler;
          memcpy = get Trace.Memcpy;
          total = s.Trace.instructions;
        }

(* The rows of a 24 MHz {!Sweep}. *)
let compute (sweep : Sweep.t) =
  List.map
    (fun (e : Sweep.entry) ->
      {
        benchmark = e.Sweep.benchmark;
        base_total = e.Sweep.baseline.Toolchain.stats.Trace.instructions;
        swapram = breakdown_of e.Sweep.swapram;
        block = breakdown_of e.Sweep.block;
      })
    sweep

let cells base = function
  | None -> [ "DNF"; "DNF"; "DNF"; "DNF"; "DNF" ]
  | Some b ->
      let p v = Printf.sprintf "%.1f%%" (100.0 *. float_of_int v /. float_of_int base) in
      [ p b.app_fram; p b.app_sram; p b.handler; p b.memcpy; p b.total ]

let render t =
  let header =
    [ "benchmark"; "system"; "app-FRAM"; "app-SRAM"; "handler"; "memcpy";
      "total (vs base)" ]
  in
  let rows =
    List.concat_map
      (fun r ->
        [
          (r.benchmark.Workloads.Bench_def.name :: "swapram"
           :: cells r.base_total r.swapram);
          ("" :: "block" :: cells r.base_total r.block);
        ])
      t
  in
  Report.heading
    "Figure 8: dynamic instruction sources (normalized to baseline count)"
  ^ Report.table ~aligns:[ Report.Left; Report.Left ] (header :: rows)
  ^ "\n"
