(* Command-line driver: compile a mini-C program (a file or one of the
   bundled benchmarks), build it for a chosen caching system and
   memory placement, run it on the simulated MSP430FR2355 and report
   execution statistics.

   The bench command regenerates the paper's tables and figures
   (DESIGN.md's per-experiment index) and the machine-readable report.

   Examples:
     swapram_cli run --benchmark crc
     swapram_cli run --benchmark aes --system swapram --freq 8
     swapram_cli run --file prog.c --system block --placement standard
     swapram_cli asm --benchmark crc        # dump instrumented assembly
     swapram_cli bench                      # every table and figure
     swapram_cli bench fig1 tab2            # selected artifacts
     swapram_cli bench --jobs=0 --report=bench/report.json
                                            # JSON report only, sweep
                                            # cells on every core

   This file holds the command-line terms only: values are parsed by
   Convert, single-run commands share one Toolchain.config term, and
   the work lives in Simulate, Recordings, Sweeps and Reports. *)

module Toolchain = Experiments.Toolchain
module Campaign = Faultinject.Campaign
module Dse = Experiments.Dse
module Replay_sweep = Experiments.Replay_sweep

open Cmdliner

(* --- Arguments shared by several commands ----------------------------- *)

let benchmark_arg =
  let doc = "Bundled benchmark name (stringsearch, dijkstra, crc, rc4, fft, aes, lzfx, bitcount, rsa, arith, journal)." in
  Arg.(
    value & opt (some Convert.benchmark) None & info [ "benchmark"; "b" ] ~doc)

let file_arg =
  let doc = "mini-C source file to compile and run." in
  let source path contents =
    Ok
      {
        Workloads.Bench_def.name = Filename.basename path;
        short = "USR";
        source = (fun _ -> contents);
        fits_data_in_sram = false;
      }
  in
  Arg.(
    value
    & opt
        (some (Convert.file source (fun b -> b.Workloads.Bench_def.name)))
        None
    & info [ "file"; "f" ] ~doc)

let system_arg =
  let doc = "Caching system: baseline, swapram, block or checkpoint." in
  Arg.(
    value
    & opt (Convert.system Toolchain.systems)
        (Option.get (Toolchain.caching_of_name "swapram"))
    & info [ "system"; "s" ] ~doc)

let placement_arg =
  let doc = "Memory placement: unified, standard, code-sram, all-sram or split." in
  Arg.(
    value
    & opt Convert.placement Toolchain.Unified
    & info [ "placement"; "p" ] ~doc)

let freq_arg =
  let doc = "CPU frequency in MHz (8 or 24)." in
  Arg.(
    value & opt Convert.frequency Msp430.Platform.Mhz24 & info [ "freq" ] ~doc)

let seed_arg =
  let doc = "Input generation seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let blacklist_arg =
  let doc = "Function excluded from caching (repeatable)." in
  Arg.(value & opt_all string [] & info [ "blacklist" ] ~doc)

let engine_doc =
  "Simulator execution engine: superblock (default), reference, or — for \
   the run command only — check, which executes the configuration under \
   both engines and fails unless every simulated result matches exactly \
   and the recordings under both engines are byte-identical."

let engine_arg =
  Arg.(
    value & opt Convert.engine Msp430.Cpu.Superblock
    & info [ "engine" ] ~doc:engine_doc)

let jobs_arg =
  let doc =
    "Shard independent runs across N forked workers (0 = one per core). \
     Cannot change any simulated value."
  in
  Arg.(value & opt Convert.jobs 1 & info [ "jobs"; "j" ] ~doc)

let telemetry_arg =
  let doc =
    "Write a host-telemetry run ledger (append-only JSONL of spans, counters \
     and worker-lifecycle records) to $(docv); just --telemetry defaults to \
     telemetry.jsonl. Inspect with the timeline command. Telemetry is \
     non-perturbing: simulated results and reports are byte-identical with \
     the flag on or off."
  in
  Arg.(
    value
    & opt ~vopt:(Some "telemetry.jsonl") (some string) None
    & info [ "telemetry" ] ~docv:"PATH" ~doc)

let quiet_arg =
  let doc = "Suppress per-shard progress output on stderr." in
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc)

(* --- The program and the configuration -------------------------------- *)

(* Exactly one of --benchmark and --file. *)
let program_term =
  let pick benchmark file =
    match (benchmark, file) with
    | Some b, None | None, Some b -> `Ok b
    | _ -> `Error (true, "pass exactly one of --benchmark or --file")
  in
  Term.(ret (const pick $ benchmark_arg $ file_arg))

(* The one Toolchain.config term of the single-run commands; pgo and
   record pin the parts they have no flag for. --blacklist applies to
   SwapRAM only. *)
let config_term ?(system = system_arg) ?(placement = placement_arg)
    ?(engine = engine_arg) () =
  let make seed frequency blacklist caching placement engine benchmark =
    let caching =
      match caching with
      | Toolchain.Swapram_cache o ->
          Toolchain.Swapram_cache { o with Swapram.Config.blacklist }
      | c -> c
    in
    {
      (Toolchain.default_config benchmark) with
      Toolchain.seed;
      frequency;
      caching;
      placement;
      engine;
    }
  in
  Term.(
    const make $ seed_arg $ freq_arg $ blacklist_arg $ system $ placement
    $ engine $ program_term)

(* --- run, profile, metrics, pgo --------------------------------------- *)

let run_term =
  let engine_arg =
    Arg.(
      value
      & opt Convert.run_engine (Some Msp430.Cpu.Superblock)
      & info [ "engine" ] ~doc:engine_doc)
  in
  Term.(
    ret
      (const Simulate.run $ engine_arg
      $ config_term ~engine:(const Msp430.Cpu.Superblock) ()
      $ telemetry_arg))

let profile_term =
  let top_arg =
    let doc = "Show only the N hottest functions (0 = all)." in
    Arg.(value & opt int 0 & info [ "top" ] ~doc)
  in
  let folded_arg =
    let doc = "Emit caller-aggregated folded stacks (flame-graph input) instead of the table." in
    Arg.(value & flag & info [ "folded" ] ~doc)
  in
  let chrome_arg =
    let doc = "Also write a Chrome trace-event JSON file to $(docv)." in
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"PATH" ~doc)
  in
  let verify_arg =
    let doc =
      "Re-run the same configuration without observation and fail unless the \
       cycle and instruction totals match exactly."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  Term.(
    ret
      (const Simulate.profile $ config_term () $ top_arg $ folded_arg
     $ chrome_arg $ verify_arg))

let metrics_term =
  let window_arg =
    let doc = "Metrics window length in total (CPU + stall) cycles." in
    Arg.(value & opt Convert.positive 65536 & info [ "window"; "w" ] ~doc)
  in
  let buckets_arg =
    let doc = "Address-histogram buckets per memory region." in
    Arg.(value & opt Convert.positive 48 & info [ "buckets" ] ~doc)
  in
  let csv_arg =
    let doc = "Emit the per-window series as CSV instead of the text report." in
    Arg.(value & flag & info [ "csv" ] ~doc)
  in
  Term.(
    ret
      (const Simulate.metrics $ config_term () $ window_arg $ buckets_arg
     $ csv_arg))

let pgo_term =
  let budget_arg =
    let doc = "Pinned-set byte budget (default: half the SRAM cache)." in
    Arg.(value & opt (some int) None & info [ "budget" ] ~doc)
  in
  let train_arg =
    let doc =
      "Run the observed training pass only and write the per-function profile \
       (JSON) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "train" ] ~docv:"PATH" ~doc)
  in
  let profile_arg =
    let doc =
      "Place a previously saved profile from $(docv) instead of training \
       in-process."
    in
    let profile =
      Convert.file
        (fun _ s -> Swapram.Pgo.profile_of_string s)
        (fun p -> p.Swapram.Pgo.pr_benchmark)
    in
    Arg.(value & opt (some profile) None & info [ "profile" ] ~docv:"PATH" ~doc)
  in
  let gate_arg =
    let doc =
      "Exit nonzero unless the PGO build's total cycles are no worse than the \
       default build's (CI smoke gate)."
    in
    Arg.(value & flag & info [ "gate" ] ~doc)
  in
  let config =
    config_term
      ~system:(Term.const (Option.get (Toolchain.caching_of_name "swapram")))
      ~placement:(Term.const Toolchain.Unified) ()
  in
  Term.(
    ret
      (const Simulate.pgo $ config $ budget_arg $ train_arg $ profile_arg
     $ gate_arg $ telemetry_arg))

(* --- asm, disasm, trace ----------------------------------------------- *)

let instrumented_arg =
  let doc = "Print the SwapRAM-instrumented program instead of plain output." in
  Arg.(value & flag & info [ "instrumented"; "i" ] ~doc)

let asm_term =
  Term.(ret (const Simulate.asm $ program_term $ seed_arg $ instrumented_arg))

let disasm_term =
  Term.(
    ret (const Simulate.disasm $ program_term $ seed_arg $ instrumented_arg))

let trace_term =
  let limit_arg =
    let doc = "Number of instructions to trace." in
    Arg.(value & opt int 100 & info [ "limit"; "n" ] ~doc)
  in
  Term.(
    ret
      (const Simulate.trace $ program_term $ system_arg $ seed_arg $ limit_arg))

(* --- record, replay --------------------------------------------------- *)

let record_term =
  let out_arg =
    let doc = "Trace file to write." in
    Arg.(
      required & opt (some string) None & info [ "out"; "o" ] ~docv:"PATH" ~doc)
  in
  Term.(
    ret
      (const Recordings.record
      $ config_term ~engine:(const Msp430.Cpu.Superblock) ()
      $ out_arg $ telemetry_arg))

let replay_term =
  let trace_arg =
    let doc = "Recorded trace file (from the record command)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)
  in
  let budget_arg =
    let doc = "Cache budget in bytes to simulate (repeatable)." in
    Arg.(
      value
      & opt_all int Replay_sweep.default_budgets
      & info [ "budget" ] ~doc)
  in
  let policy_arg =
    let doc = "Replacement policy: lru, lfu or cost (repeatable; default all three)." in
    Arg.(
      value
      & opt_all Convert.policy Replay_sweep.default_policies
      & info [ "policy" ] ~doc)
  in
  let block_arg =
    let doc = "Line-size override in bytes for line-granular traces." in
    Arg.(value & opt (some int) None & info [ "block" ] ~doc)
  in
  let check_arg =
    let doc =
      "Reconstruct the recorded configuration from the trace header, \
       re-execute it, and fail unless the replay reproduces the execution \
       bit-for-bit (cycles, energy, every counter). Only traces recorded \
       under default caching options are reconstructible."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let freq_arg =
    let doc =
      "Recompute the exact totals at this frequency in MHz instead of the \
       recorded one (retargets wait states and the energy model; the \
       event stream is frequency-independent)."
    in
    Arg.(value & opt (some int) None & info [ "freq" ] ~docv:"MHZ" ~doc)
  in
  Term.(
    ret
      (const Recordings.replay $ trace_arg $ budget_arg $ policy_arg
     $ block_arg $ check_arg $ freq_arg $ jobs_arg $ telemetry_arg))

(* --- faultinject, campaign, dse --------------------------------------- *)

let faultinject_term =
  let mode_arg =
    let doc =
      "Injection mode: sweep (periodic gaps from --period, repeatable), \
       periodic (single gap), random (seeded bursts) or adversarial \
       (outages aimed at the runtime's critical windows)."
    in
    let modes = [ "sweep"; "periodic"; "random"; "adversarial" ] in
    Arg.(
      value
      & opt (enum (List.map (fun m -> (m, m)) modes)) "sweep"
      & info [ "mode"; "m" ] ~doc)
  in
  let period_arg =
    let doc = "Outage period in counted memory accesses (repeatable)." in
    Arg.(
      value
      & opt_all int [ 400_000; 150_000; 80_000 ]
      & info [ "period" ] ~doc)
  in
  let crash_seed_arg =
    let doc = "Seed for the random outage schedule." in
    Arg.(value & opt int 42 & info [ "crash-seed" ] ~doc)
  in
  let max_reboots_arg =
    let doc = "Watchdog: reboots before a run is declared a livelock." in
    Arg.(value & opt int 2000 & info [ "max-reboots" ] ~doc)
  in
  let watchdog_cycles_arg =
    let doc =
      "Watchdog: cumulative simulated cycles across all lives before a run \
       is declared a livelock (0 = unbounded)."
    in
    Arg.(value & opt int 0 & info [ "watchdog-cycles" ] ~doc)
  in
  Term.(
    ret
      (const Sweeps.faultinject $ config_term () $ jobs_arg $ mode_arg
     $ period_arg $ crash_seed_arg $ max_reboots_arg $ watchdog_cycles_arg
     $ telemetry_arg))

(* Monte-Carlo campaign: randomized schedules over a grid of
   benchmarks x runtimes x samplers, aggregated with Wilson CIs. *)
let campaign_plan_term =
  let d = Campaign.default_plan in
  let benchmarks_arg =
    let doc =
      "Benchmark in the campaign grid (repeatable; default journal and crc)."
    in
    Arg.(
      value
      & opt_all Convert.benchmark d.p_benchmarks
      & info [ "benchmark"; "b" ] ~doc)
  in
  let systems_arg =
    let doc =
      "Runtime under test: baseline, swapram, block or checkpoint \
       (repeatable; default swapram, block and checkpoint)."
    in
    Arg.(
      value
      & opt_all (Convert.system Toolchain.systems) d.p_runtimes
      & info [ "system"; "s" ] ~doc)
  in
  let samplers_arg =
    let doc =
      "Power-failure sampler: uniform, bursty or near-eviction (repeatable; \
       default all three)."
    in
    Arg.(value & opt_all Convert.sampler d.p_samplers & info [ "sampler" ] ~doc)
  in
  let trials_arg =
    let doc = "Trials per cell." in
    Arg.(value & opt Convert.positive 200 & info [ "trials"; "n" ] ~doc)
  in
  let shard_arg =
    let doc = "Trials per shard (the unit of dispatch and checkpointing)." in
    Arg.(value & opt Convert.positive 25 & info [ "shard" ] ~doc)
  in
  let max_reboots_arg =
    let doc = "Per-trial watchdog: reboots before a livelock verdict." in
    Arg.(value & opt int 1000 & info [ "max-reboots" ] ~doc)
  in
  let watchdog_scale_arg =
    let doc =
      "Per-trial cycle watchdog as a multiple of the cell's golden cycles."
    in
    Arg.(value & opt int 16 & info [ "watchdog-scale" ] ~doc)
  in
  let ci_width_arg =
    let doc =
      "Stop a cell early once the 95% Wilson interval on its \
       crash-consistency rate is narrower than $(docv) (e.g. 0.05); omit to \
       run every trial."
    in
    Arg.(
      value & opt (some float) None & info [ "ci-width" ] ~docv:"WIDTH" ~doc)
  in
  let plan p_benchmarks p_runtimes p_samplers p_trials p_seed p_shard_trials
      p_max_reboots p_watchdog_scale p_ci_width =
    {
      d with
      Campaign.p_benchmarks;
      p_runtimes;
      p_samplers;
      p_trials;
      p_seed;
      p_shard_trials;
      p_max_reboots;
      p_watchdog_scale;
      p_ci_width;
    }
  in
  Term.(
    const plan $ benchmarks_arg $ systems_arg $ samplers_arg $ trials_arg
    $ seed_arg $ shard_arg $ max_reboots_arg $ watchdog_scale_arg
    $ ci_width_arg)

let campaign_term =
  let resume_arg =
    let doc =
      "Progress checkpoint file: finished shards are persisted here and \
       replayed instead of recomputed on a re-run (extending --trials reuses \
       full shards)."
    in
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"PATH" ~doc)
  in
  let chunk_arg =
    let doc =
      "Campaign shards per worker pipe round trip (0 = dynamic chunk sizing; \
       1 disables chunking)."
    in
    Arg.(value & opt int 0 & info [ "chunk" ] ~doc)
  in
  let report_arg =
    let doc =
      "Write the campaign report as JSON (the bench report schema, with only \
       the campaign object) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"PATH" ~doc)
  in
  Term.(
    ret
      (const Sweeps.campaign $ campaign_plan_term $ resume_arg $ jobs_arg
     $ chunk_arg $ report_arg $ quiet_arg $ telemetry_arg))

let dse_grid_term =
  let d = Dse.default_grid in
  let budget_min_arg =
    let doc = "Smallest SRAM budget in bytes." in
    Arg.(value & opt int 512 & info [ "budget-min" ] ~doc)
  in
  let budget_max_arg =
    let doc = "Largest SRAM budget in bytes." in
    Arg.(value & opt int 16384 & info [ "budget-max" ] ~doc)
  in
  let budget_step_arg =
    let doc = "SRAM budget step in bytes." in
    Arg.(value & opt Convert.positive 32 & info [ "budget-step" ] ~doc)
  in
  let policy_arg =
    let doc =
      "Eviction-policy axis: lru, lfu or cost (repeatable; default all three)."
    in
    Arg.(value & opt_all Convert.policy d.g_policies & info [ "policy" ] ~doc)
  in
  let block_arg =
    let doc =
      "Block-size axis in bytes, 0 for the recorded slot size (repeatable; \
       default 0, 256 and 512; applies to line-granular traces only)."
    in
    Arg.(
      value
      & opt_all int (List.map (Option.value ~default:0) d.g_blocks)
      & info [ "block" ] ~doc)
  in
  let mhz_arg =
    let doc = "Clock-frequency axis in MHz: 8 or 24 (repeatable; default both)." in
    Arg.(value & opt_all int d.g_frequencies & info [ "mhz" ] ~doc)
  in
  let grid lo hi step g_policies blocks g_frequencies =
    {
      Dse.g_budgets = Dse.range ~lo ~hi ~step;
      g_policies;
      g_blocks = List.map (fun b -> if b = 0 then None else Some b) blocks;
      g_frequencies;
    }
  in
  Term.(
    const grid $ budget_min_arg $ budget_max_arg $ budget_step_arg $ policy_arg
    $ block_arg $ mhz_arg)

let dse_term =
  let benchmarks_arg =
    let doc =
      "Benchmark in the exploration grid (repeatable; default the full suite)."
    in
    Arg.(
      value
      & opt_all Convert.benchmark Workloads.Suite.all
      & info [ "benchmark"; "b" ] ~doc)
  in
  let systems_arg =
    let doc = "Caching system axis: swapram or block (repeatable; default both)." in
    Arg.(
      value
      & opt_all
          (Convert.system Toolchain.replay_systems)
          Toolchain.replay_systems
      & info [ "system"; "s" ] ~doc)
  in
  let trace_dir_arg =
    let doc =
      "Directory for recorded traces (created if missing; traces whose \
       header fingerprint matches are reused instead of re-recorded). \
       Default: a temporary directory removed on exit."
    in
    Arg.(value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR" ~doc)
  in
  let resume_arg =
    let doc =
      "Persistent memo store: the sims a run computes are appended here once \
       the whole grid has been simulated, and a re-run only computes cells \
       missing from the store (a warm store computes 0)."
    in
    Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"PATH" ~doc)
  in
  let report_arg =
    let doc =
      "Write the full DSE report (with the sims_computed, sims_cached and \
       sims_collapsed provenance counters) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"PATH" ~doc)
  in
  let frontier_arg =
    let doc =
      "Write the deterministic (slim) DSE object to $(docv) — byte-identical \
       across serial, parallel and resumed runs."
    in
    Arg.(value & opt (some string) None & info [ "frontier" ] ~docv:"PATH" ~doc)
  in
  Term.(
    ret
      (const Sweeps.dse $ benchmarks_arg $ systems_arg $ dse_grid_term
     $ seed_arg $ jobs_arg $ trace_dir_arg $ resume_arg $ report_arg
     $ frontier_arg $ quiet_arg $ telemetry_arg))

(* --- bench, compare, timeline ----------------------------------------- *)

let bench_term =
  let artifact_arg =
    let names = List.map (fun (n, _) -> (n, n)) Reports.bench_artifacts in
    let doc =
      Printf.sprintf
        "Artifact to regenerate: %s. With no $(docv) and neither --report nor \
         --baseline, every artifact runs."
        (Arg.doc_alts_enum names)
    in
    Arg.(value & pos_all (enum names) [] & info [] ~docv:"ARTIFACT" ~doc)
  in
  let path_arg name ~default ~doc =
    Arg.(
      value
      & opt ~vopt:(Some default) (some string) None
      & info [ name ] ~docv:"PATH" ~doc)
  in
  let report_arg =
    path_arg "report" ~default:"bench/report.json"
      ~doc:"After the artifacts, write the full JSON report to $(docv)."
  in
  let baseline_arg =
    path_arg "baseline" ~default:"bench/baseline.json"
      ~doc:
        "Last, write the slim report, the committed regression baseline, to \
         $(docv)."
  in
  let campaign_arg =
    let doc =
      "Embed a Monte-Carlo fault-injection campaign (default plan, $(docv) \
       trials per cell) in the --report JSON."
    in
    Arg.(
      value
      & opt ~vopt:(Some 200) (some Convert.positive) None
      & info [ "campaign" ] ~docv:"TRIALS" ~doc)
  in
  Term.(
    ret
      (const Reports.bench $ artifact_arg $ report_arg $ baseline_arg
     $ campaign_arg $ jobs_arg $ telemetry_arg))

let compare_term =
  let old_arg =
    let doc = "Baseline report (e.g. bench/baseline.json)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD" ~doc)
  in
  let new_arg =
    let doc = "Candidate report to gate (e.g. bench/report.json)." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW" ~doc)
  in
  let threshold_arg =
    let doc =
      "Override every per-metric relative threshold with one value (e.g. \
       0.02 = 2%)."
    in
    Arg.(value & opt (some float) None & info [ "threshold" ] ~doc)
  in
  Term.(ret (const Reports.compare $ old_arg $ new_arg $ threshold_arg))

let timeline_term =
  let ledger_arg =
    let doc = "Telemetry run ledger (JSONL, written by --telemetry)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"LEDGER" ~doc)
  in
  let chrome_arg =
    let doc =
      "Write a Chrome trace-event JSON file to $(docv): one track per worker \
       PID plus a host track with spans and counters (load in \
       chrome://tracing or https://ui.perfetto.dev)."
    in
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"PATH" ~doc)
  in
  let csv_arg =
    let doc = "Write the flattened span/task/counter table as CSV to $(docv)." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"PATH" ~doc)
  in
  let summary_arg =
    let doc =
      "Print the utilization/throughput summary (default when no exporter is \
       requested)."
    in
    Arg.(value & flag & info [ "summary" ] ~doc)
  in
  Term.(
    ret
      (const Reports.timeline $ ledger_arg $ chrome_arg $ csv_arg
     $ summary_arg))

let cmds =
  List.map
    (fun (name, doc, term) -> Cmd.v (Cmd.info name ~doc) term)
    [
      ("run", "Build and simulate a program", run_term);
      ( "profile",
        "Simulate with the cycle-attribution profiler attached and \
         print per-function cycle/energy attribution",
        profile_term );
      ( "metrics",
        "Simulate with the windowed cache-dynamics sampler attached \
         and print the time series, FRAM/SRAM address heatmaps and \
         the miss-ratio curve",
        metrics_term );
      ( "pgo",
        "Profile-guided placement: train under the default SwapRAM \
         pipeline, rebuild with the hot set pinned in SRAM, and \
         measure the improvement",
        pgo_term );
      ( "compare",
        "Perf-regression gate: compare two bench reports under \
         per-metric thresholds; nonzero exit on regression",
        compare_term );
      ( "record",
        "Simulate once and capture the counted event stream into a \
         compact binary trace for the replay command",
        record_term );
      ( "replay",
        "Replay a recorded trace through cache models (budgets x \
         replacement policies) without re-executing the CPU; \
         --check verifies bit-for-bit agreement with a fresh \
         execution",
        replay_term );
      ("asm", "Dump generated (optionally instrumented) assembly", asm_term);
      ( "disasm",
        "Disassemble the assembled image (objdump-style listing)",
        disasm_term );
      ("trace", "Print an execution trace (mspdebug-style)", trace_term);
      ( "faultinject",
        "Inject power failures and verify crash consistency against \
         an uninterrupted golden run",
        faultinject_term );
      ( "campaign",
        "Monte-Carlo fault-injection campaign: randomized \
         power-failure schedules against a grid of benchmarks x \
         runtimes x samplers, with Wilson confidence intervals, \
         optional early stopping, self-healing parallel workers and \
         resumable progress checkpoints",
        campaign_term );
      ( "dse",
        "Design-space exploration: replay recorded traces over a \
         grid of SRAM budget x eviction policy x block size x \
         frequency points and compute exact Pareto frontiers \
         (cycles, energy, SRAM, NVM traffic), with batched replay, \
         one parallel task per (trace, block) group and a \
         persistent memo store for incremental re-runs",
        dse_term );
      ( "bench",
        "Regenerate the paper's tables and figures at seed 1, and \
         write the JSON report (--report) and the slim regression \
         baseline (--baseline)",
        bench_term );
      ( "timeline",
        "Render a telemetry run ledger (--telemetry) as a Chrome \
         trace-event worker timeline, a utilization/throughput \
         summary, or CSV",
        timeline_term );
    ]

let () =
  let info =
    Cmd.info "swapram_cli"
      ~doc:"SwapRAM software instruction cache for NVRAM microcontrollers"
  in
  exit (Cmd.eval (Cmd.group info cmds))
