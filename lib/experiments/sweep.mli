(** Shared evaluation sweep: every benchmark under the three systems
    at a given frequency, memoized per (seed, frequency, observe,
    engine, subset) — Table 2 and Figures 8/9 all read from this
    matrix. Each sweep cross-checks the cached systems' outputs
    against the baseline (the §5.1 validation) and fails loudly on a
    mismatch.

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

val set_default_jobs : int -> unit
(** Worker count used when a sweep is invoked without [?jobs] —
    including indirectly, through figure/table modules that don't
    thread a jobs parameter. Clamped to >= 1; the default is 1
    (serial). *)

val resolve_jobs : int option -> int
(** The worker count a sweep would use for the given [?jobs] argument:
    the argument clamped to >= 1, or the {!set_default_jobs} value. *)

val set_default_progress : Observe.Progress.sink -> unit
(** Progress sink used by sweeps (as [Units_done] events, one per
    finished cell) — process-wide for the same reason as
    {!set_default_jobs}: figure/table modules don't thread a sink.
    Purely observational; the default is {!Observe.Progress.null}. *)

type memo_stats = { hits : int; misses : int }

val memo_stats : unit -> memo_stats
(** Cumulative memo behavior across {!compute} and {!compute_pgo}
    since start (or {!reset_memo_stats}): a hit served a sweep from
    the memo, a miss really ran it. *)

val reset_memo_stats : unit -> unit

val timed : (unit -> 'a) -> 'a * float
(** Run a thunk and return (result, elapsed host seconds) on the
    monotonic clock. The perf harness ([perf/]) times its cells with
    it. *)

val compute :
  ?seed:int ->
  ?benchmarks:Workloads.Bench_def.t list ->
  ?observe:Toolchain.observe_spec ->
  ?jobs:int ->
  frequency:Msp430.Platform.frequency ->
  unit ->
  t
(** [benchmarks] restricts the sweep to a subset (defaults to the full
    suite); [observe] attaches the profiling stack to every run (see
    {!Toolchain.observe_spec}); [jobs] overrides {!set_default_jobs}
    for this sweep. Runs use {!Toolchain.default_engine}. Results are
    memoized per (seed, frequency, observed?, default engine, subset)
    — [jobs] is not part of the key because it cannot change simulated
    values; {!clear_cache} forces a recomputation. *)

type pgo_entry = {
  pgo_benchmark : Workloads.Bench_def.t;
  pgo : (Toolchain.pgo_result, string) result;
}

val compute_pgo :
  ?seed:int ->
  ?benchmarks:Workloads.Bench_def.t list ->
  ?observe:Toolchain.observe_spec ->
  ?jobs:int ->
  frequency:Msp430.Platform.frequency ->
  unit ->
  pgo_entry list
(** Profile-guided {!Toolchain.run_pgo} over the suite (train under
    the default SwapRAM configuration, rebuild with the computed
    placement, measure), one benchmark per worker when [jobs > 1].
    Memoized like {!compute}; [observe] applies to the measured run. *)

val clear_cache : unit -> unit
(** Drop both memo tables. For tests that need to recompute the same
    sweep under different jobs settings and compare results. *)
