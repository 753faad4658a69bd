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

val compute :
  ?seed:int ->
  ?benchmarks:Workloads.Bench_def.t list ->
  ?frequency:Msp430.Platform.frequency ->
  ?slim:bool ->
  ?jobs:int ->
  ?campaign:Observe.Json.t ->
  unit ->
  Observe.Json.t
(** [slim] (default false) drops the bulky "metrics" and
    "top_functions" payloads and the "replay" object while keeping
    every scalar the perf-regression gate ({!Compare}) reads — the
    rendering committed as bench/baseline.json. [jobs] (default
    {!Sweep.set_default_jobs}) shards sweep cells across forked
    workers; it cannot change any value in the report. [campaign] is
    embedded as the top-level "campaign" member when given. Fails if a
    replay is not exact. *)

val write :
  ?seed:int ->
  ?benchmarks:Workloads.Bench_def.t list ->
  ?frequency:Msp430.Platform.frequency ->
  ?slim:bool ->
  ?jobs:int ->
  ?campaign:Observe.Json.t ->
  string ->
  unit
(** Render {!compute} pretty-printed to the given path. *)
