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
    and the "replay" object ({!Replay_sweep.bench}: every trace
    verified bit-for-bit against its recording, then replayed across
    the model grid); the optional "campaign" object is passed in
    verbatim; the "dse" object ({!Dse.json} [~slim:true]) appears in
    both renderings. *)

val schema_version : int

type sweeps
(** The profiled runs a report renders — the Table-2 sweep and the
    PGO list, with {!Toolchain.metrics_observe} attached — and the
    seed, benchmarks and frequency they were run with. *)

val sweeps :
  ?seed:int ->
  ?benchmarks:Workloads.Bench_def.t list ->
  ?frequency:Msp430.Platform.frequency ->
  ?jobs:int ->
  ?progress:Observe.Progress.sink ->
  unit ->
  sweeps
(** Run {!Sweep.compute} and {!Sweep.compute_pgo} once; a full report
    and a slim one can render the same value. Defaults: seed 1, the
    full suite, 24 MHz; [jobs] and [progress] as for {!Sweep.compute}. *)

val compute :
  ?slim:bool -> ?jobs:int -> ?campaign:Observe.Json.t -> sweeps -> Observe.Json.t
(** [slim] (default false) drops the bulky "metrics" and
    "top_functions" payloads and the "replay" object while keeping
    every scalar the perf-regression gate ({!Compare}) reads — the
    rendering committed as bench/baseline.json. [jobs] (default 1)
    shards the replay and DSE work across forked workers; it cannot
    change any value in the report. [campaign] is embedded as the
    top-level "campaign" member when given. Fails if a replay is not
    exact. *)

val write :
  ?slim:bool ->
  ?jobs:int ->
  ?campaign:Observe.Json.t ->
  sweeps ->
  string ->
  unit
(** Render {!compute} pretty-printed to the given path. *)
