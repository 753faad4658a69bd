(* Record-once / replay-many sweep cells, plus the shared
   exact-replay verifier.

   The memo key is derived from the trace *contents* — the header's
   configuration fingerprint and the event count — plus the full
   replay model. Keying by path would let a stale or rewritten trace
   file satisfy a memoized cell recorded under a different
   configuration; keying by fingerprint makes that structurally
   impossible (the regression test overwrites a trace in place and
   asserts the memo misses). *)

module Engine = Replay.Engine
module Trace_file = Replay.Trace_file

type cell = { c_budget : int; c_policy : Engine.policy; c_block : int option }

type cell_result = { r_cell : cell; r_sim : Engine.sim }

type run = {
  header : Trace_file.header;
  events : int;
  bytes : int;
  cells : cell_result list;
}

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

(* --- Memo -------------------------------------------------------------- *)

type memo_key = {
  k_fingerprint : int;
  k_events : int;
  k_budget : int;
  k_policy : string;
  k_block : int option;
}

let memo : (memo_key, cell_result) Hashtbl.t = Hashtbl.create 64

let key_of ~fingerprint ~events cell =
  {
    k_fingerprint = fingerprint;
    k_events = events;
    k_budget = cell.c_budget;
    k_policy = Engine.policy_name cell.c_policy;
    k_block = cell.c_block;
  }

let clear_cache () = Hashtbl.reset memo

(* Memo accounting: hit = cell served from the memo, miss = cell
   simulated ([~cache:false] counts every cell as a miss), stale =
   replay refused because the trace fingerprint no longer matches the
   expected configuration. *)
type memo_stats = { hits : int; misses : int; stale : int }

let memo_hits = ref 0
let memo_misses = ref 0
let memo_stale = ref 0

let memo_stats () =
  { hits = !memo_hits; misses = !memo_misses; stale = !memo_stale }

let reset_memo_stats () =
  memo_hits := 0;
  memo_misses := 0;
  memo_stale := 0

(* --- Cell evaluation --------------------------------------------------- *)

let load_or_fail trace =
  match Engine.load_cached trace with
  | Ok l -> l
  | Error e -> failwith (Engine.error_message e)

let model_of c =
  { Engine.m_budget = c.c_budget; m_policy = c.c_policy; m_block = c.c_block }

(* Batched evaluation: one [simulate_many] call over the whole list,
   so the reference stream is pre-bucketed once per block size and the
   residency arrays are reused across cells. *)
let sim_batch loaded cells =
  List.map2
    (fun c s -> { r_cell = c; r_sim = s })
    cells
    (Engine.simulate_many loaded (List.map model_of cells))

(* Evaluate [cells] against [trace], sharded into contiguous chunks of
   [Parallel.chunk_size] cells. The parent decodes the trace once
   ([Engine.load_cached]); forked workers inherit that cache entry, so
   no worker re-decodes — each chunk is a pure [simulate_many] batch. *)
let eval_cells ?chunk ~jobs ~trace cells =
  let n = List.length cells in
  let jobs = max 1 (min jobs n) in
  let loaded =
    Observe.Telemetry.with_span ~cat:"replay" "load" (fun () ->
        load_or_fail trace)
  in
  if jobs <= 1 then sim_batch loaded cells
  else begin
    let c = Parallel.chunk_size ?chunk ~jobs n in
    let arr = Array.of_list cells in
    let nchunks = (n + c - 1) / c in
    let chunks =
      List.init nchunks (fun i ->
          let lo = i * c in
          Array.to_list (Array.sub arr lo (min c (n - lo))))
    in
    List.concat
      (Parallel.map ~jobs (fun chunk -> sim_batch (load_or_fail trace) chunk) chunks)
  end

let replay_cells ?jobs ?chunk ?(cache = true) ?expect ~trace cells =
  let jobs = Sweep.resolve_jobs jobs in
  match Trace_file.read_header trace with
  | Error e -> Error (Trace_file.error_message e)
  | Ok header -> (
      let stale_check =
        match expect with
        | None -> Ok ()
        | Some config ->
            let expected = Toolchain.config_fingerprint config in
            if expected = header.Trace_file.fingerprint then Ok ()
            else
              Error
                (Printf.sprintf
                   "stale trace: %s records fingerprint %d, expected \
                    configuration has %d — re-record before replaying"
                   trace header.Trace_file.fingerprint expected)
      in
      match stale_check with
      | Error _ as e ->
          incr memo_stale;
          Observe.Telemetry.counter "replay.memo_stale" !memo_stale;
          e
      | Ok () -> (
          (* The memo key needs the event count, which lives past the
             header; fetch it (and bytes) with a cheap full decode only
             if some cell misses — a fully-memoized replay should not
             re-read a large file. The count is already known if any
             cell was computed before under this fingerprint. *)
          match
            let fingerprint = header.Trace_file.fingerprint in
            let probe_events () =
              (* [load_cached]: the decode this probe pays is the same
                 one [eval_cells] will reuse for every missing cell. *)
              let l = load_or_fail trace in
              (l.Engine.events, l.Engine.bytes)
            in
            let events, bytes =
              if not cache then probe_events ()
              else
                (* any memo entry under this fingerprint pins the count *)
                match
                  Hashtbl.fold
                    (fun k _ acc ->
                      if k.k_fingerprint = fingerprint then Some k.k_events
                      else acc)
                    memo None
                with
                | Some ev -> (ev, 0)
                | None -> probe_events ()
            in
            let hit, missing =
              if not cache then ([], cells)
              else
                List.partition_map
                  (fun c ->
                    match
                      Hashtbl.find_opt memo (key_of ~fingerprint ~events c)
                    with
                    | Some r -> Either.Left (c, r)
                    | None -> Either.Right c)
                  cells
            in
            memo_hits := !memo_hits + List.length hit;
            memo_misses := !memo_misses + List.length missing;
            Observe.Telemetry.counter "replay.memo_hits" !memo_hits;
            Observe.Telemetry.counter "replay.memo_misses" !memo_misses;
            let computed =
              if missing = [] then []
              else
                Observe.Telemetry.with_span ~cat:"replay" "cells"
                  ~args:
                    [
                      ("cells", Observe.Json.Int (List.length missing));
                      ("jobs", Observe.Json.Int jobs);
                    ]
                  (fun () -> eval_cells ?chunk ~jobs ~trace missing)
            in
            if cache then
              List.iter
                (fun r ->
                  Hashtbl.replace memo
                    (key_of ~fingerprint ~events r.r_cell)
                    r)
                computed;
            let tbl = Hashtbl.create (List.length cells) in
            List.iter (fun (c, r) -> Hashtbl.replace tbl c r) hit;
            List.iter (fun r -> Hashtbl.replace tbl r.r_cell r) computed;
            {
              header;
              events;
              bytes;
              cells = List.map (fun c -> Hashtbl.find tbl c) cells;
            }
          with
          | run -> Ok run
          | exception Failure msg -> Error msg
          | exception Parallel.Worker_failed msg -> Error msg))

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

(* --- Bench driver ------------------------------------------------------ *)

type bench_entry = {
  b_benchmark : string;
  b_system : string;
  b_fingerprint : int;
  b_events : int;
  b_bytes : int;
  b_cells : cell_result list;
}

let bench_pair ~seed ~frequency ~cells (bd, system_name) =
  let caching =
    match system_name with
    | "swapram" -> Toolchain.Swapram_cache Swapram.Config.default_options
    | "block" -> Toolchain.Block_cache Blockcache.Config.default_options
    | s -> invalid_arg ("Replay_sweep.bench: unknown system " ^ s)
  in
  let config =
    { (Toolchain.default_config bd) with seed; frequency; caching }
  in
  let trace =
    Filename.temp_file
      (Printf.sprintf "swtr-%s-%s-" bd.Workloads.Bench_def.short system_name)
      ".trace"
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove trace with Sys_error _ -> ())
    (fun () ->
      match Toolchain.run_recorded ~trace config with
      | Toolchain.Crashed o ->
          failwith
            (Printf.sprintf "recording %s/%s crashed: %s"
               bd.Workloads.Bench_def.name system_name (Msp430.Cpu.outcome_name o))
      | Toolchain.Did_not_fit _ ->
          (* Expected capacity outcome: several Table-2 benchmarks
             exceed the block cache's data limit. No trace, no entry. *)
          None
      | Toolchain.Completed res -> (
          let loaded = load_or_fail trace in
          match verify_exact loaded res with
          | m :: _ ->
              failwith
                (Printf.sprintf "replay of %s/%s is not exact: %s"
                   bd.Workloads.Bench_def.name system_name m)
          | [] ->
              Some
                {
                  b_benchmark = bd.Workloads.Bench_def.name;
                  b_system = system_name;
                  b_fingerprint = loaded.Engine.header.Trace_file.fingerprint;
                  b_events = loaded.Engine.events;
                  b_bytes = loaded.Engine.bytes;
                  b_cells = sim_batch loaded cells;
                }))

let bench ?(seed = 1) ?benchmarks ?budgets ?policies ?jobs ~frequency () =
  let benchmarks =
    match benchmarks with Some b -> b | None -> Workloads.Suite.all
  in
  let cells = grid ?budgets ?policies () in
  let pairs =
    List.concat_map (fun bd -> [ (bd, "swapram"); (bd, "block") ]) benchmarks
  in
  let jobs = Sweep.resolve_jobs jobs in
  List.filter_map
    (fun e -> e)
    (Parallel.map ~jobs (bench_pair ~seed ~frequency ~cells) pairs)
