(** Shared evaluation sweep: every benchmark under the three systems
    at a given frequency — Table 2 and Figures 8/9 all read from this
    matrix, and the bench driver computes it once per run and passes
    the value to each. Each sweep cross-checks the cached systems'
    outputs against the baseline (the §5.1 validation) and fails
    loudly on a mismatch.

    With [jobs > 1] the independent (benchmark x system) cells are
    sharded across forked workers; results are identical to a serial
    sweep (each cell is a pure function of its configuration), and the
    merged list is in benchmark order regardless of scheduling. *)

type entry = {
  benchmark : Workloads.Bench_def.t;
  baseline : Toolchain.result;
  swapram : Toolchain.outcome;
  block : Toolchain.outcome;
}

type t = entry list

val timed : (unit -> 'a) -> 'a * float
(** Run a thunk and return (result, elapsed host seconds) on the
    monotonic clock. The perf harness ([perf/]) times its cells with
    it. *)

val compute :
  ?seed:int ->
  ?benchmarks:Workloads.Bench_def.t list ->
  ?observe:Toolchain.observe_spec ->
  ?jobs:int ->
  ?progress:Observe.Progress.sink ->
  frequency:Msp430.Platform.frequency ->
  unit ->
  t
(** [benchmarks] restricts the sweep to a subset (defaults to the full
    suite); [observe] attaches the profiling stack to every run (see
    {!Toolchain.observe_spec}); [jobs] (default 1, serial) shards the
    cells across forked workers and cannot change a simulated value;
    [progress] hears one [Units_done] event per finished cell. Runs
    use {!Toolchain.default_config}'s engine. *)

type pgo_entry = {
  pgo_benchmark : Workloads.Bench_def.t;
  pgo : (Toolchain.pgo_result, string) result;
}

val compute_pgo :
  ?seed:int ->
  ?observe:Toolchain.observe_spec ->
  ?jobs:int ->
  ?progress:Observe.Progress.sink ->
  frequency:Msp430.Platform.frequency ->
  t ->
  pgo_entry list
(** Profile-guided {!Toolchain.run_pgo} over the benchmarks of a sweep
    computed with the same [seed] and [frequency] (train under the
    default SwapRAM configuration, rebuild with the computed
    placement, measure), one benchmark per worker when [jobs > 1].
    A SwapRAM cell that carries an observation is the training run,
    so an observed sweep adds only the measured runs; an unobserved
    one is trained afresh. Arguments as for {!compute}; [observe]
    applies to the measured run. *)
