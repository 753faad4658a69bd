(** Machine-readable benchmark report ([bench/report.json]): the
    Table-2 configurations (every benchmark under baseline / SwapRAM /
    block cache, plus the profile-guided "swapram_pgo" rebuild) run
    with the profiling stack attached, rendered under a stable
    versioned JSON schema for CI artifact upload. The schema is
    documented in EXPERIMENTS.md.

    Schema v8: the report is a pure function of (seed, benchmarks,
    frequency[, campaign]) — it carries no host wall-clock, so two
    reports of one configuration are compared with plain byte
    equality. Host throughput of the simulator is measured by [perf/].
    Full reports add the per-system "metrics" series, "top_functions"
    and the "replay" object (every trace verified bit-for-bit against
    the sweep's run of its configuration, then replayed across the
    model grid); the optional "campaign" object is passed in verbatim;
    the "dse" object ({!Dse.json} [~slim:true]) appears in both
    renderings. *)

val schema_version : int

type sweeps
(** Everything a report renders, each computed once: the Table-2 sweep
    and the PGO list, with {!Toolchain.metrics_observe} attached, the
    "replay" and "dse" objects, and the seed and frequency they were
    run with. *)

val sweeps :
  ?seed:int ->
  ?benchmarks:Workloads.Bench_def.t list ->
  ?frequency:Msp430.Platform.frequency ->
  ?jobs:int ->
  ?progress:Observe.Progress.sink ->
  unit ->
  sweeps
(** Execute each configuration once. {!Sweep.compute} runs the
    observed sweep, and {!Sweep.compute_pgo} trains on its SwapRAM
    cells. {!Dse.record_workloads} then records each fitting
    (benchmark, cached system) pair once at [frequency] into a
    temporary directory, and both objects are built from those traces:
    "replay" verifies each against the sweep's run of the same
    configuration ({!Replay_sweep.verify_exact}, raising [Failure] on
    the first mismatch) and replays it across {!Replay_sweep.grid};
    "dse" evaluates the report grid, whose objectives retarget every
    trace to each grid frequency. A full and a slim report can render
    the same value. Defaults: seed 1, the full suite, 24 MHz; [jobs]
    and [progress] as for {!Sweep.compute}; [jobs] cannot change any
    value in the report. *)

val compute : ?slim:bool -> ?campaign:Observe.Json.t -> sweeps -> Observe.Json.t
(** Render the report. [slim] (default false) drops the bulky
    "metrics" and "top_functions" payloads and the "replay" object
    while keeping every scalar the perf-regression gate ({!Compare})
    reads — the rendering committed as bench/baseline.json.
    [campaign] is embedded as the top-level "campaign" member when
    given. *)

val write :
  ?slim:bool -> ?campaign:Observe.Json.t -> sweeps -> string -> unit
(** Render {!compute} pretty-printed to the given path. *)
