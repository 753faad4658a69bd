(** Record-once / replay-many sweep cells.

    One recorded trace per (benchmark x cached system) stands in for
    re-executing the CPU at every cache-model grid point: each cell
    is a {!Replay.Engine.simulate} call over the loaded reference
    stream, sharded across {!Parallel} workers, microseconds instead
    of seconds.

    Memoization: replayed cells are memoized like {!Sweep} cells, but
    the key is derived from the trace {e contents} — the header's
    configuration fingerprint and event count — plus the full replay
    model, never from the file path. A stale or swapped trace file
    therefore can never satisfy a memoized cell: its fingerprint
    differs, so its cells miss the memo and recompute. *)

type cell = {
  c_budget : int;  (** cache capacity in bytes *)
  c_policy : Replay.Engine.policy;
  c_block : int option;  (** line-size override for block-cache traces *)
}

type cell_result = { r_cell : cell; r_sim : Replay.Engine.sim }

type run = {
  header : Replay.Trace_file.header;
  events : int;
  bytes : int;
  cells : cell_result list;  (** in request order *)
}

val default_budgets : int list
val default_policies : Replay.Engine.policy list

val grid : ?budgets:int list -> ?policies:Replay.Engine.policy list -> unit -> cell list

val replay_cells :
  ?jobs:int ->
  ?chunk:int ->
  ?cache:bool ->
  ?expect:Toolchain.config ->
  trace:string ->
  cell list ->
  (run, string) result
(** Evaluate every cell against the recorded trace. [expect] asserts
    the trace was recorded under exactly that configuration
    ({!Toolchain.config_fingerprint}); a mismatch is an error, not a
    silent answer from the wrong recording. [jobs > 1] shards cells
    across forked workers in contiguous chunks of
    [Parallel.chunk_size] cells ([chunk] overrides the dynamic width);
    the parent decodes the trace once with
    {!Replay.Engine.load_cached} and workers inherit the decoded
    statistics over fork, so no worker re-decodes. Each chunk is one
    {!Replay.Engine.simulate_many} batch. Results are identical to a
    serial run. [cache:false] bypasses the memo. *)

val clear_cache : unit -> unit

type memo_stats = { hits : int; misses : int; stale : int }

val memo_stats : unit -> memo_stats
(** Cumulative memo behavior of {!replay_cells} since start (or
    {!reset_memo_stats}): cells served from the memo vs simulated
    ([~cache:false] counts every cell as a miss), plus replays refused
    because the trace fingerprint was stale. Jobs-independent: the
    hit/miss partition happens before any cell is dispatched. *)

val reset_memo_stats : unit -> unit

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
