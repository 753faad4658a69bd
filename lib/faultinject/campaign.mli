(** Monte-Carlo fault-injection campaigns: the statistical wing of the
    fault-injection harness. A campaign runs a grid of cells —
    benchmark x runtime x power-failure sampler — with [trials]
    independent seeded injected runs per cell, sharded across the
    {!Experiments.Parallel} worker pool, and aggregates per-cell
    survivability statistics (forward-progress rate, crash-consistency
    rate, mean reboots-to-completion, cycle/energy overhead over
    golden) with Wilson-score confidence intervals.

    Determinism contract: a campaign outcome is a pure function of its
    {!plan}. Per-trial seeds derive from (campaign seed, cell index,
    trial index), shard tallies are folded in shard order, and early
    stopping picks the first shard index at which the cumulative CI
    narrows below the configured width — so serial and parallel runs,
    and fresh and resumed runs, produce byte-identical reports. *)

(** {2 Samplers} *)

type sampler =
  | Uniform  (** uniform gaps in [accesses/100, accesses/5] *)
  | Bursty
      (** harvested-energy pattern: long calm charge interval, then a
          burst of brown-outs in quick succession *)
  | Near_eviction
      (** adversarial: random access depths inside the runtime's
          critical windows (miss handler, metadata, snapshot slots) *)

val all_samplers : sampler list
val sampler_name : sampler -> string
val sampler_of_string : string -> sampler option

val schedule_for : sampler -> Oracle.golden -> int -> Schedule.t
(** [schedule_for sampler golden seed]: the sampler's gap
    distributions scale with the golden run's counted accesses. *)

val trial_seed : seed:int -> cell:int -> trial:int -> int
(** Splitmix64-chained per-trial seed — deterministic across runs and
    worker layouts. *)

(** {2 Plans} *)

type plan = {
  p_benchmarks : Workloads.Bench_def.t list;
  p_runtimes : Experiments.Toolchain.caching list;
  p_samplers : sampler list;
  p_trials : int;  (** per cell *)
  p_seed : int;
  p_shard_trials : int;  (** trials per shard (dispatch unit) *)
  p_round_shards : int;
      (** shards evaluated between early-stop checks; fixed
          independently of [jobs] so parallel runs aggregate exactly
          the shards a serial run would *)
  p_max_reboots : int;  (** livelock watchdog, per trial *)
  p_watchdog_scale : int;
      (** cycle watchdog per trial: [max 2e6 (golden cycles * scale)] *)
  p_ci_width : float option;
      (** stop a cell once the Wilson interval on its consistency rate
          is narrower than this; [None] runs every trial *)
  p_fuel : int;
}

val default_runtimes : Experiments.Toolchain.caching list
(** The three systems under test: SwapRAM, the block cache, and the
    checkpointing runtime, each with default options. *)

val default_plan : plan
(** journal + crc, {!default_runtimes}, all samplers, 200 trials/cell,
    seed 1, 25-trial shards, no early stop. *)

(** {2 Tallies and statistics} *)

type tally = {
  t_trials : int;
  t_consistent : int;  (** verdict [Pass] *)
  t_completed : int;  (** reached halt: [Pass] or a mismatch *)
  t_mismatches : int;
  t_fault_escapes : int;
  t_livelocks : int;
  t_reboots : int;
  t_torn : int;
  t_reboots_completed : int;  (** reboots summed over completed trials *)
  t_cycles_completed : float;
  t_energy_completed : float;
}

val tally_zero : tally
val tally_add : tally -> tally -> tally

val wilson : int -> int -> float * float
(** [wilson n k]: 95% Wilson score interval (z = 1.96) for [k]
    successes in [n] trials. [(0, 1)] when [n = 0]. *)

(** {2 Results} *)

type cell = {
  cl_benchmark : string;
  cl_runtime : string;
  cl_sampler : sampler;
  cl_label : string;  (** "benchmark/runtime/sampler" *)
}

type cell_result = {
  cr_cell : cell;
  cr_golden : Oracle.golden;
  cr_tally : tally;  (** aggregated over shards [0 .. shards_done-1] *)
  cr_shards_done : int;
  cr_shards_total : int;
  cr_stopped_early : bool;
  cr_consistency_ci : float * float;
  cr_progress_ci : float * float;
}

type outcome = {
  o_seed : int;
  o_trials : int;  (** total trials aggregated across cells *)
  o_cells : cell_result list;
  o_wall_seconds : float;  (** host time; excluded from {!to_json} *)
  o_shards_computed : int;
      (** shard tallies actually evaluated this run; with
          [o_shards_cached], host-side provenance only — excluded from
          {!to_json} so fresh and resumed runs stay byte-identical *)
  o_shards_cached : int;  (** shards replayed from the progress file *)
}

val fingerprint : plan -> string
(** The progress-file fingerprint: every plan field that determines a
    shard's tally (also stamped into telemetry run manifests). *)

val run :
  ?jobs:int ->
  ?progress:Observe.Progress.sink ->
  ?progress_file:string ->
  ?chaos:(cell:string -> shard:int -> unit) ->
  plan ->
  (outcome, string) result
(** Execute the campaign. [jobs <= 1] runs serially in-process;
    higher values shard across {!Experiments.Parallel.map}, one shard
    per pool task, which respawns crashed workers and re-queues their
    shards up to three times each, so a killed worker costs wall-clock
    time but never data. Results are identical for every [jobs].

    [progress_file] names the progress checkpoint, an
    {!Experiments.Store} (created if absent or empty): every round's
    finished shard tallies are appended, and a re-run (or an extended
    run with more trials) replays finished shards from the file
    instead of recomputing them. The file is fingerprinted by every
    plan field that determines shard contents; a mismatch is an
    [Error], not a silent recompute. [chaos] is a test hook invoked at
    the start of every shard task (in the worker, when forked).

    Golden runs are computed once per cell in the calling process.
    [Error] on a golden build/run failure, a fingerprint mismatch, or
    an exhausted worker-retry budget. *)

val mean_reboots_to_completion : tally -> float
(** [nan] when no trial completed. *)

val cycle_overhead : cell_result -> float
(** Mean cycles of completed trials over golden cycles; [nan] when no
    trial completed. *)

val energy_overhead : cell_result -> float

val to_json : outcome -> Observe.Json.t
(** Deterministic report (no wall-clock): byte-identical across
    serial, parallel and resumed runs of the same plan. *)

val table : outcome -> string
(** Human-readable per-cell summary. *)
