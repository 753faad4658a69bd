module Trace = Msp430.Trace
module Platform = Msp430.Platform
module Energy = Msp430.Energy
module Json = Observe.Json

(* Machine-readable benchmark report (bench/report.json).

   Runs the Table-2 configurations — every requested benchmark under
   the unified-memory baseline, SwapRAM and the block cache at a given
   frequency — with the profiling stack attached, and renders the
   results under a stable, versioned schema for CI artifact upload and
   downstream tooling. The schema is documented in EXPERIMENTS.md;
   bump [schema_version] on any breaking change.

   Schema v8: every member — the per-system cells (full reports add
   the "metrics" time series and "top_functions"), "swapram_pgo", the
   optional "campaign", "dse" (always the slim rendering) and, in full
   reports, "replay" — is a simulated value, a pure function of (seed,
   benchmarks, frequency[, campaign]). The report carries no host
   wall-clock, so two reports of one configuration are byte-identical
   whatever the worker count or telemetry setting; host throughput is
   measured by perf/. *)

let schema_version = 8

let top_functions ~params ~(obs : Toolchain.observation) n =
  let rows = Observe.Profiler.rows ~params obs.Toolchain.o_profiler in
  let total =
    max 1 (Observe.Profiler.cycles_of (Observe.Profiler.totals obs.Toolchain.o_profiler))
  in
  List.filteri (fun i _ -> i < n) rows
  |> List.map (fun (r : Observe.Profiler.row) ->
         Json.Obj
           [
             ("name", Json.String r.Observe.Profiler.name);
             ("cycles", Json.Int (Observe.Profiler.cycles_of r.Observe.Profiler.c));
             ( "share",
               Json.Float
                 (float_of_int (Observe.Profiler.cycles_of r.Observe.Profiler.c)
                 /. float_of_int total) );
             ("energy_nj", Json.Float r.Observe.Profiler.energy_nj);
           ])

let swapram_stats_json (s : Swapram.Runtime.stats) =
  Json.Obj
    [
      ("misses", Json.Int s.Swapram.Runtime.misses);
      ("aborts", Json.Int s.Swapram.Runtime.aborts);
      ("too_large", Json.Int s.Swapram.Runtime.too_large);
      ("frozen_misses", Json.Int s.Swapram.Runtime.frozen_misses);
      ("evictions", Json.Int s.Swapram.Runtime.evictions);
      ("words_copied", Json.Int s.Swapram.Runtime.words_copied);
      ("placement_retries", Json.Int s.Swapram.Runtime.placement_retries);
      ("prefetches", Json.Int s.Swapram.Runtime.prefetches);
      ("pins", Json.Int s.Swapram.Runtime.pins);
    ]

let block_stats_json (s : Blockcache.Runtime.stats) =
  Json.Obj
    [
      ("misses", Json.Int s.Blockcache.Runtime.misses);
      ("block_loads", Json.Int s.Blockcache.Runtime.block_loads);
      ("chains", Json.Int s.Blockcache.Runtime.chains);
      ("flushes", Json.Int s.Blockcache.Runtime.flushes);
      ("returns", Json.Int s.Blockcache.Runtime.returns);
      ("hash_probes", Json.Int s.Blockcache.Runtime.hash_probes);
      ("words_copied", Json.Int s.Blockcache.Runtime.words_copied);
    ]

let window_json metrics (w : Observe.Metrics.window) =
  Json.Obj
    [
      ("start", Json.Int w.Observe.Metrics.w_start);
      ("unstalled", Json.Int w.Observe.Metrics.w_unstalled);
      ("stall", Json.Int w.Observe.Metrics.w_stall);
      ("instrs", Json.Int w.Observe.Metrics.w_instrs);
      ("fram_read_hits", Json.Int w.Observe.Metrics.w_fram_read_hits);
      ("fram_read_misses", Json.Int w.Observe.Metrics.w_fram_read_misses);
      ("fram_writes", Json.Int w.Observe.Metrics.w_fram_writes);
      ("sram_accesses", Json.Int w.Observe.Metrics.w_sram_accesses);
      ("misses", Json.Int (Observe.Metrics.window_misses w));
      ("evictions", Json.Int w.Observe.Metrics.w_evictions);
      ("freezes", Json.Int w.Observe.Metrics.w_freezes);
      ("flushes", Json.Int w.Observe.Metrics.w_flushes);
      ("block_loads", Json.Int w.Observe.Metrics.w_block_loads);
      ("prefetches", Json.Int w.Observe.Metrics.w_prefetches);
      ("occupancy", Json.Int w.Observe.Metrics.w_occupancy);
      ( "energy_nj",
        Json.Float (Observe.Metrics.window_energy metrics w).Observe.Metrics.e_total
      );
    ]

let mrc_json metrics =
  match Observe.Metrics.reuse_tracker metrics with
  | None -> Json.Null
  | Some r ->
      let spec = Observe.Metrics.spec metrics in
      let budget = spec.Observe.Metrics.config_budget in
      let granularity =
        match spec.Observe.Metrics.reuse with
        | Observe.Metrics.Functions -> "function"
        | Observe.Metrics.Lines n -> Printf.sprintf "line-%d" n
        | Observe.Metrics.No_reuse -> "none"
      in
      Json.Obj
        [
          ("granularity", Json.String granularity);
          ("accesses", Json.Int (Observe.Reuse.accesses r));
          ("units", Json.Int (Observe.Reuse.units r));
          ("footprint_bytes", Json.Int (Observe.Reuse.footprint r));
          ("measured_misses", Json.Int (Observe.Reuse.measured_misses r));
          ("measured_miss_rate", Json.Float (Observe.Reuse.measured_miss_rate r));
          ("config_budget", Json.Int budget);
          ( "predicted_at_config",
            if budget > 0 then
              Json.Float (Observe.Reuse.predicted_miss_rate r ~budget)
            else Json.Null );
          ( "points",
            Json.List
              (List.map
                 (fun (b, rate) ->
                   Json.Obj
                     [
                       ("budget", Json.Int b);
                       ("predicted_miss_rate", Json.Float rate);
                     ])
                 (Observe.Reuse.curve r
                    ~budgets:Observe.Metrics.default_budgets)) );
        ]

let metrics_json metrics =
  Json.Obj
    [
      ( "window_cycles",
        Json.Int (Observe.Metrics.spec metrics).Observe.Metrics.window_cycles );
      ( "windows",
        Json.List
          (List.map (window_json metrics) (Observe.Metrics.windows metrics)) );
      ("mrc", mrc_json metrics);
    ]

let completed_json ~params ~slim (r : Toolchain.result) =
  let stats = r.Toolchain.stats in
  let fram_reads = stats.Trace.fram_ifetch + stats.Trace.fram_data_reads in
  let hit_rate =
    if fram_reads = 0 then 0.0
    else float_of_int stats.Trace.fram_read_hits /. float_of_int fram_reads
  in
  let miss_handler_share =
    match r.Toolchain.observation with
    | Some obs ->
        Json.Float
          (Observe.Profiler.source_share obs.Toolchain.o_profiler Trace.Handler
          +. Observe.Profiler.source_share obs.Toolchain.o_profiler Trace.Memcpy)
    | None -> Json.Null
  in
  let top =
    match r.Toolchain.observation with
    | Some obs when not slim -> Json.List (top_functions ~params ~obs 5)
    | Some _ | None -> Json.Null
  in
  let metrics =
    match r.Toolchain.observation with
    | Some { Toolchain.o_metrics = Some m; _ } when not slim -> metrics_json m
    | _ -> Json.Null
  in
  let runtime =
    match (r.Toolchain.swapram_stats, r.Toolchain.block_stats) with
    | Some s, _ -> swapram_stats_json s
    | None, Some s -> block_stats_json s
    | None, None -> Json.Null
  in
  Json.Obj
    [
      ("status", Json.String "completed");
      ("cycles", Json.Int (Trace.total_cycles stats));
      ("unstalled_cycles", Json.Int stats.Trace.unstalled_cycles);
      ("stall_cycles", Json.Int stats.Trace.stall_cycles);
      ("instructions", Json.Int stats.Trace.instructions);
      ("fram_accesses", Json.Int (Trace.fram_accesses stats));
      ("sram_accesses", Json.Int (Trace.sram_accesses stats));
      ("hwcache_hit_rate", Json.Float hit_rate);
      ("energy_nj", Json.Float r.Toolchain.energy.Energy.energy_nj);
      ("time_s", Json.Float r.Toolchain.energy.Energy.time_s);
      ("return_value", Json.Int r.Toolchain.return_value);
      ("code_bytes", Json.Int r.Toolchain.sizes.Toolchain.code_bytes);
      ("data_bytes", Json.Int r.Toolchain.sizes.Toolchain.data_bytes);
      ("miss_handler_share", miss_handler_share);
      ("runtime", runtime);
      ("top_functions", top);
      ("metrics", metrics);
    ]

let outcome_json ~params ~slim = function
  | Toolchain.Completed r -> completed_json ~params ~slim r
  | Toolchain.Crashed o ->
      Json.Obj
        [
          ("status", Json.String "crashed");
          ("reason", Json.String (Report.outcome_cell o));
        ]
  | Toolchain.Did_not_fit msg ->
      Json.Obj
        [ ("status", Json.String "did-not-fit"); ("reason", Json.String msg) ]

let pgo_json ~params ~slim (e : Sweep.pgo_entry) =
  match e.Sweep.pgo with
  | Error reason ->
      Json.Obj [ ("status", Json.String "error"); ("reason", Json.String reason) ]
  | Ok r -> (
      let placement = r.Toolchain.pg_placement in
      let names l = Json.List (List.map (fun n -> Json.String n) l) in
      let descr =
        ( "pgo",
          Json.Obj
            [
              ("budget", Json.Int placement.Swapram.Pgo.pl_budget);
              ("pinned", names placement.Swapram.Pgo.pl_pinned);
              ("fram_resident", names placement.Swapram.Pgo.pl_fram_resident);
            ] )
      in
      match outcome_json ~params ~slim r.Toolchain.pg_measured with
      | Json.Obj kvs -> Json.Obj (kvs @ [ descr ])
      | j -> j)

(* --- "replay" object: record-once / replay-many ------------------------- *)

(* The sweep's completed run of a recorded workload's configuration. *)
let executed sweep (w : Dse.workload) =
  let e =
    List.find
      (fun (e : Sweep.entry) ->
        e.Sweep.benchmark.Workloads.Bench_def.name = w.Dse.w_benchmark)
      sweep
  in
  match (w.Dse.w_system, e.Sweep.swapram, e.Sweep.block) with
  | "swapram", Toolchain.Completed r, _ | "block", _, Toolchain.Completed r -> r
  | _ -> failwith ("bench report: no completed sweep run of " ^ Dse.workload_name w)

(* Every decoded trace is checked bit-for-bit against the sweep's run
   of its configuration; a mismatch raises. *)
let verify_traces sweep workloads =
  List.iter
    (fun w ->
      match Replay_sweep.verify_exact w.Dse.w_loaded (executed sweep w) with
      | m :: _ ->
          failwith
            (Printf.sprintf "replay of %s is not exact: %s"
               (Dse.workload_name w) m)
      | [] -> ())
    workloads

let replay_json ~jobs workloads =
  let cell_json (r : Replay_sweep.cell_result) =
    let cell = r.Replay_sweep.r_cell and sim = r.Replay_sweep.r_sim in
    Json.Obj
      [
        ("replayed", Json.Bool true);
        ("budget", Json.Int cell.Replay_sweep.c_budget);
        ("policy", Json.String (Replay.Engine.policy_name cell.Replay_sweep.c_policy));
        ( "block",
          match cell.Replay_sweep.c_block with
          | Some n -> Json.Int n
          | None -> Json.Null );
        ("refs", Json.Int sim.Replay.Engine.s_refs);
        ("misses", Json.Int sim.Replay.Engine.s_misses);
        ("cold_misses", Json.Int sim.Replay.Engine.s_cold_misses);
        ("evictions", Json.Int sim.Replay.Engine.s_evictions);
        ("bytes_loaded", Json.Int sim.Replay.Engine.s_bytes_loaded);
        ("miss_rate", Json.Float sim.Replay.Engine.s_miss_rate);
      ]
  in
  let trace_json (w : Dse.workload) cells =
    let l = w.Dse.w_loaded in
    Json.Obj
      [
        ("benchmark", Json.String w.Dse.w_benchmark);
        ("system", Json.String w.Dse.w_system);
        ( "fingerprint",
          Json.Int l.Replay.Engine.header.Replay.Trace_file.fingerprint );
        ("events", Json.Int l.Replay.Engine.events);
        ("bytes", Json.Int l.Replay.Engine.bytes);
        ("exact_match", Json.Bool true);
        ("cells", Json.List (List.map cell_json cells));
      ]
  in
  let cells =
    Replay_sweep.replay_traces ~jobs
      (List.map (fun w -> w.Dse.w_loaded) workloads)
      (Replay_sweep.grid ())
  in
  Json.Obj
    [
      ("exact_all", Json.Bool true);
      ("traces", Json.List (List.map2 trace_json workloads cells));
    ]

(* --- "dse" object: Pareto design-space exploration ----------------------- *)

(* The report grid: the default axes with the budget axis coarsened to
   64 B steps — still >= 20k evaluated points over the suite, at half
   the simulation cost of {!Dse.default_grid}. Both the slim baseline
   and the full report use this exact grid, so the compare gate can
   diff frontiers point-for-point. *)
let dse_report_grid =
  { Dse.default_grid with Dse.g_budgets = Dse.range ~lo:512 ~hi:16384 ~step:64 }

(* The objectives retarget each trace to every grid frequency, so the
   recording frequency does not show in the slim rendering. *)
let dse_json ~jobs workloads =
  match Dse.run ~jobs dse_report_grid workloads with
  | Error e -> failwith ("bench report: dse evaluation failed: " ^ e)
  | Ok outcome -> Dse.json ~slim:true dse_report_grid outcome

(* The profiled runs a report renders — the Table-2 sweep and the PGO
   list, with the metrics stack attached — the "replay" and "dse"
   objects built from one recording per (benchmark, cached system),
   and what they were run with. Only a full report renders "replay",
   so its cells are simulated when the first one is. *)
type sweeps = {
  seed : int;
  frequency : Platform.frequency;
  sweep : Sweep.t;
  pgo : Sweep.pgo_entry list;
  replay : Json.t Lazy.t;
  dse : Json.t;
}

let sweeps ?(seed = 1) ?(benchmarks = Workloads.Suite.all)
    ?(frequency = Platform.Mhz24) ?(jobs = 1) ?progress () =
  let observe = Toolchain.metrics_observe in
  let sweep =
    Sweep.compute ~seed ~benchmarks ~observe ~jobs ?progress ~frequency ()
  in
  let pgo = Sweep.compute_pgo ~seed ~observe ~jobs ?progress ~frequency sweep in
  let replay, dse =
    Dse.with_trace_dir @@ fun dir ->
    match
      Dse.record_workloads ~seed ~benchmarks ~frequency ~jobs ?progress ~dir ()
    with
    | Error e -> failwith ("bench report: recording failed: " ^ e)
    | Ok workloads ->
        verify_traces sweep workloads;
        (lazy (replay_json ~jobs workloads), dse_json ~jobs workloads)
  in
  { seed; frequency; sweep; pgo; replay; dse }

let compute ?(slim = false) ?campaign { seed; frequency; sweep; pgo; replay; dse }
    =
  let params = Platform.energy_params frequency in
  (* The "replay" object is full-report-only: the slim baseline keeps
     only what the compare gate reads. The "dse" frontiers are gated,
     so they appear in both. *)
  let replay = if slim then [] else [ ("replay", Lazy.force replay) ] in
  let dse = [ ("dse", dse) ] in
  Json.Obj
    ([
      ("schema_version", Json.Int schema_version);
      ("seed", Json.Int seed);
      ("frequency_hz", Json.Int (Platform.mhz frequency * 1_000_000));
      ( "benchmarks",
        Json.List
          (List.map
             (fun (e : Sweep.entry) ->
               let name = e.Sweep.benchmark.Workloads.Bench_def.name in
               let pgo_cell =
                 List.find_map
                   (fun (p : Sweep.pgo_entry) ->
                     if
                       p.Sweep.pgo_benchmark.Workloads.Bench_def.name = name
                     then Some (pgo_json ~params ~slim p)
                     else None)
                   pgo
               in
               Json.Obj
                 [
                   ("name", Json.String name);
                   ( "systems",
                     Json.Obj
                       ([
                          ( "baseline",
                            outcome_json ~params ~slim
                              (Toolchain.Completed e.Sweep.baseline) );
                          ("swapram", outcome_json ~params ~slim e.Sweep.swapram);
                          ("block", outcome_json ~params ~slim e.Sweep.block);
                        ]
                       @
                       match pgo_cell with
                       | Some cell -> [ ("swapram_pgo", cell) ]
                       | None -> []) );
                 ])
             sweep) );
    ]
    @ (match campaign with
      | Some c -> [ ("campaign", (c : Json.t)) ]
      | None -> [])
    @ dse @ replay)

let write ?slim ?campaign sweeps path =
  let json = compute ?slim ?campaign sweeps in
  let oc = open_out path in
  output_string oc (Json.to_string_pretty json);
  close_out oc
