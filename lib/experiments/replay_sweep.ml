(* Record-once / replay-many sweep cells, plus the shared
   exact-replay verifier. *)

module Engine = Replay.Engine
module Trace_file = Replay.Trace_file

type cell = { c_budget : int; c_policy : Engine.policy; c_block : int option }

type cell_result = { r_cell : cell; r_sim : Engine.sim }

(* MRC-style budget ladder around the 4 KiB SRAM of the reference
   part: half the paper's sweep range below it, hypothetical larger
   SRAMs above. One trace load amortizes across the whole grid. *)
let default_budgets =
  [ 512; 768; 1024; 1536; 2048; 2560; 3072; 4096; 5120; 6144; 8192; 12288 ]
let default_policies = [ Engine.Lru; Engine.Lfu; Engine.Cost_aware ]

let grid ?(budgets = default_budgets) ?(policies = default_policies) () =
  List.concat_map
    (fun b ->
      List.map (fun p -> { c_budget = b; c_policy = p; c_block = None }) policies)
    budgets

(* --- Cell evaluation --------------------------------------------------- *)

let model_of c =
  { Engine.m_budget = c.c_budget; m_policy = c.c_policy; m_block = c.c_block }

(* Evaluate [cells] against every trace through the shared planner:
   one pool task per (trace, block size), each one [simulate_many]
   batch. *)
let replay_traces ?(jobs = 1) traces cells =
  let n = List.length cells in
  let sims, _ =
    Observe.Telemetry.with_span ~cat:"replay" "cells"
      ~args:
        [
          ("cells", Observe.Json.Int (n * List.length traces));
          ("jobs", Observe.Json.Int jobs);
        ]
      (fun () ->
        Sim_plan.run ~jobs
          (Sim_plan.plan
             (List.concat_map
                (fun l -> List.map (fun c -> (l, model_of c)) cells)
                traces)))
  in
  let sims = Array.of_list sims in
  List.mapi
    (fun t _ ->
      List.mapi (fun i c -> { r_cell = c; r_sim = sims.((t * n) + i) }) cells)
    traces

let replay_cells ?jobs ?expect (loaded : Engine.loaded) cells =
  let recorded = loaded.Engine.header.Trace_file.fingerprint in
  match Option.map Toolchain.config_fingerprint expect with
  | Some expected when expected <> recorded ->
      Error
        (Printf.sprintf
           "stale trace: %s records fingerprint %d, expected configuration \
            has %d — re-record before replaying"
           loaded.Engine.path recorded expected)
  | _ -> (
      match replay_traces ?jobs [ loaded ] cells with
      | results -> Ok (List.concat results)
      | exception Failure msg -> Error msg
      | exception Parallel.Worker_failed msg -> Error msg)

(* --- Exact-replay verification ----------------------------------------- *)

let verify_exact (l : Engine.loaded) (res : Toolchain.result) =
  let errs = ref [] in
  let chk name replayed executed =
    if replayed <> executed then
      errs :=
        Printf.sprintf "%s: executed %d, replayed %d" name executed replayed
        :: !errs
  in
  let chkf name replayed executed =
    (* bit-for-bit: same counts through the same float pipeline *)
    if replayed <> executed then
      errs :=
        Printf.sprintf "%s: executed %.17g, replayed %.17g" name executed
          replayed
        :: !errs
  in
  let stats = res.Toolchain.stats in
  (match Engine.exact l with
  | Error msg -> errs := ("exact replay: " ^ msg) :: !errs
  | Ok t ->
      chk "unstalled cycles" t.Engine.t_unstalled
        stats.Msp430.Trace.unstalled_cycles;
      chk "stall cycles" t.Engine.t_stall stats.Msp430.Trace.stall_cycles;
      chk "total cycles" t.Engine.t_cycles (Msp430.Trace.total_cycles stats);
      chkf "energy_nj" t.Engine.t_energy_nj
        res.Toolchain.energy.Msp430.Energy.energy_nj;
      chkf "time_s" t.Engine.t_time_s res.Toolchain.energy.Msp430.Energy.time_s);
  chk "instructions" l.Engine.instructions stats.Msp430.Trace.instructions;
  Array.iteri
    (fun i n ->
      chk
        (Printf.sprintf "instructions[%s]"
           (Msp430.Trace.source_name
              (List.nth
                 [
                   Msp430.Trace.App_fram;
                   Msp430.Trace.App_sram;
                   Msp430.Trace.Handler;
                   Msp430.Trace.Memcpy;
                 ]
                 i)))
        n
        stats.Msp430.Trace.instr_by_source.(i))
    l.Engine.by_source;
  chk "fram_ifetch" l.Engine.fram_ifetch stats.Msp430.Trace.fram_ifetch;
  chk "fram_data_reads" l.Engine.fram_data_reads
    stats.Msp430.Trace.fram_data_reads;
  chk "fram_read_hits" l.Engine.fram_read_hits
    stats.Msp430.Trace.fram_read_hits;
  chk "fram_writes" l.Engine.fram_writes stats.Msp430.Trace.fram_writes;
  chk "sram_ifetch" l.Engine.sram_ifetch stats.Msp430.Trace.sram_ifetch;
  chk "sram_data_reads" l.Engine.sram_data_reads
    stats.Msp430.Trace.sram_data_reads;
  chk "sram_writes" l.Engine.sram_writes stats.Msp430.Trace.sram_writes;
  chk "periph_accesses" l.Engine.periph_accesses
    stats.Msp430.Trace.periph_accesses;
  (match res.Toolchain.swapram_stats with
  | None -> ()
  | Some s ->
      let rc = l.Engine.runtime in
      chk "swapram misses" rc.Engine.rc_misses s.Swapram.Runtime.misses;
      chk "swapram evictions" rc.Engine.rc_evictions
        s.Swapram.Runtime.evictions;
      chk "swapram aborts" rc.Engine.rc_aborts s.Swapram.Runtime.aborts;
      chk "swapram frozen" rc.Engine.rc_frozen s.Swapram.Runtime.frozen_misses;
      chk "swapram too_large" rc.Engine.rc_too_large
        s.Swapram.Runtime.too_large;
      chk "swapram prefetches" rc.Engine.rc_prefetches
        s.Swapram.Runtime.prefetches);
  (match res.Toolchain.block_stats with
  | None -> ()
  | Some s ->
      let rc = l.Engine.runtime in
      chk "block misses" rc.Engine.rc_misses s.Blockcache.Runtime.misses;
      chk "block loads" rc.Engine.rc_block_loads
        s.Blockcache.Runtime.block_loads;
      chk "block flushes" rc.Engine.rc_flushes s.Blockcache.Runtime.flushes;
      chk "block returns" rc.Engine.rc_returns s.Blockcache.Runtime.returns);
  List.rev !errs
