(** Record-once / replay-many sweep cells.

    One recorded trace per (benchmark x cached system) stands in for
    re-executing the CPU at every cache-model grid point: each cell
    is a {!Replay.Engine.simulate} call over the loaded reference
    stream, batched per block size by {!Sim_plan}, microseconds
    instead of seconds. Cells are not memoized: {!Store} is the one
    on-disk memo, and {!Replay.Engine.load_cached} refuses to serve a
    decode of a trace rewritten since. *)

type cell = {
  c_budget : int;  (** cache capacity in bytes *)
  c_policy : Replay.Engine.policy;
  c_block : int option;  (** line-size override for block-cache traces *)
}

type cell_result = { r_cell : cell; r_sim : Replay.Engine.sim }

val default_budgets : int list
val default_policies : Replay.Engine.policy list

val grid : ?budgets:int list -> ?policies:Replay.Engine.policy list -> unit -> cell list

val replay_cells :
  ?jobs:int ->
  ?expect:Toolchain.config ->
  Replay.Engine.loaded ->
  cell list ->
  (cell_result list, string) result
(** Evaluate every cell against the loaded trace, in request order.
    [expect] asserts the trace was recorded under exactly that
    configuration ({!Toolchain.config_fingerprint}); a mismatch is an
    error, not a silent answer from the wrong recording. Cells go to
    up to [jobs] forked workers as {!Sim_plan} tasks, one
    {!Replay.Engine.simulate_many} batch per block size; workers
    inherit the parent's decode. Results are identical for every
    [jobs]. *)

val verify_exact : Replay.Engine.loaded -> Toolchain.result -> string list
(** Check a loaded trace against the result of the run that recorded
    it (or any execution of the same configuration — the simulated
    results are engine- and observation-neutral): exact totals via
    {!Replay.Engine.exact}, every {!Msp430.Trace} counter, energy
    bit-for-bit, and the replayable runtime counters of whichever
    caching system ran. Returns human-readable mismatch descriptions;
    [[]] means the replay is exact. *)

(** {2 Bench driver} *)

type bench_entry = {
  b_benchmark : string;
  b_system : string;  (** "swapram" or "block" *)
  b_fingerprint : int;
  b_events : int;
  b_bytes : int;
  b_cells : cell_result list;
}

val bench :
  ?seed:int ->
  ?benchmarks:Workloads.Bench_def.t list ->
  ?budgets:int list ->
  ?policies:Replay.Engine.policy list ->
  ?jobs:int ->
  frequency:Msp430.Platform.frequency ->
  unit ->
  bench_entry list
(** The bench/report pipeline: for every benchmark x {swapram, block},
    record once into a temporary file, verify exact replay against the
    recorded run, then evaluate the model grid in one
    {!Replay.Engine.simulate_many} batch. Pairs whose image does not
    fit the system (several Table-2 benchmarks exceed the block
    cache's data limit) are skipped. A crashed recording and a replay
    that is not bit-for-bit exact ({!verify_exact}) both raise
    [Failure] ({!Parallel.Worker_failed} from a worker). One
    (benchmark x system) pair per worker when [jobs > 1]; traces are
    deleted afterwards. *)
