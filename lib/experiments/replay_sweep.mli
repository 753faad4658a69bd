(** Record-once / replay-many sweep cells.

    One recorded trace per (benchmark x cached system) stands in for
    re-executing the CPU at every cache-model grid point: each cell
    is a {!Replay.Engine.simulate} call over the loaded reference
    stream, batched per block size by {!Sim_plan}, microseconds
    instead of seconds. Callers pass decoded traces, so nothing here
    opens a trace file. Cells are not memoized: {!Store} is the one
    on-disk memo. *)

type cell = {
  c_budget : int;  (** cache capacity in bytes *)
  c_policy : Replay.Engine.policy;
  c_block : int option;  (** line-size override for block-cache traces *)
}

type cell_result = { r_cell : cell; r_sim : Replay.Engine.sim }

val default_budgets : int list
val default_policies : Replay.Engine.policy list

val grid : ?budgets:int list -> ?policies:Replay.Engine.policy list -> unit -> cell list

val replay_traces :
  ?jobs:int -> Replay.Engine.loaded list -> cell list -> cell_result list list
(** Evaluate every cell against every loaded trace: one list per
    trace, both in request order. The (trace, cell) pairs go to up to
    [jobs] (default 1) forked workers as {!Sim_plan} tasks, one
    {!Replay.Engine.simulate_many} batch per (trace, block size);
    workers get the decoded traces by [fork]. Results are identical for
    every [jobs]. Raises [Failure] ({!Parallel.Worker_failed} from a
    worker) if a simulation fails. *)

val replay_cells :
  ?jobs:int ->
  ?expect:Toolchain.config ->
  Replay.Engine.loaded ->
  cell list ->
  (cell_result list, string) result
(** {!replay_traces} over one trace, with failures as [Error].
    [expect] asserts the trace was recorded under exactly that
    configuration ({!Toolchain.config_fingerprint}); a mismatch is an
    error, not a silent answer from the wrong recording. *)

val verify_exact : Replay.Engine.loaded -> Toolchain.result -> string list
(** Check a loaded trace against the result of the run that recorded
    it (or any execution of the same configuration — the simulated
    results are engine- and observation-neutral): exact totals via
    {!Replay.Engine.exact}, every {!Msp430.Trace} counter, energy
    bit-for-bit, and the replayable runtime counters of whichever
    caching system ran. Returns human-readable mismatch descriptions;
    [[]] means the replay is exact. *)
