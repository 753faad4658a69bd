(** Fork-based worker pool for sharding independent experiment cells
    across host cores.

    Each task is computed in a forked child of the current process
    (same binary, same loaded code), so task closures and results may
    contain functional values; results travel back over a pipe via
    [Marshal] with [Closures]. The parent hands out tasks dynamically
    (one outstanding task per worker) and reassembles results in input
    order, so a parallel map is deterministic: same inputs, same
    output list, independent of worker count and scheduling.

    Simulated results are bit-identical to a serial run by
    construction — each cell is a pure function of its inputs computed
    by an isolated process. Only host-side timings differ. *)

val ncores : unit -> int
(** Number of online cores, parsed from /proc/cpuinfo; 1 when it
    cannot be determined. *)

exception Worker_failed of string
(** A task raised in its worker (carrying [Printexc.to_string] of the
    original), or a task was given up after its retry budget. *)

val in_worker : unit -> bool
(** True inside a forked worker process. Chaos tasks that deliberately
    kill their own process must check this so the serial in-process
    degradation of {!map}/{!map_chunked} is never killed. *)

(** Pool lifecycle notifications, for campaign progress reporting.
    Purely observational: handlers see aggregate facts only and cannot
    influence scheduling or results. The same stream (plus per-worker
    records and queue-depth counters) is mirrored to the
    {!Observe.Telemetry} ledger when one is enabled. *)
type event =
  | Spawned of { pid : int }
  | Dispatched of { pid : int; task : int }
      (** a task was handed to a worker (serial degradation reports
          the current process's pid) *)
  | Completed of { pid : int; task : int }
      (** the worker delivered the task's result *)
  | Died of { pid : int; task : int; attempt : int }
      (** a worker crashed mid-task, the task's [attempt]-th failed
          execution; the task goes to the back of the queue unless
          its retries are spent *)

val worker_progress : Observe.Progress.sink -> event -> unit
(** Forward an event's worker transition as a
    {!Observe.Progress.Worker_state} (spawned, busy, idle, died;
    [Spawned] carries task [-1]). *)

val units_progress :
  label:string -> total:int -> Observe.Progress.sink -> event -> unit
(** A fresh handler that reports each [Completed] task as one more of
    [total] units, as a {!Observe.Progress.Units_done} under [label];
    other events are ignored. For maps whose tasks are the units. *)

val map :
  ?jobs:int ->
  ?retries:int ->
  ?on_event:(event -> unit) ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** [map ~jobs f xs] is [List.map f xs] computed by up to [jobs]
    forked workers. [jobs] defaults to 1; values [<= 1], a singleton
    or empty [xs] degrade to plain [List.map] in-process (no fork).
    Tasks are dispatched dynamically in list order; results are
    returned in list order regardless of completion order.

    A worker that crashes is disposed of — both pipe ends closed,
    killed if needed, reaped — and its task goes to the back of the
    queue, to run on a freshly spawned worker, up to [retries]
    re-executions per task, after which {!Worker_failed} is raised.
    Tasks have no host-time deadline: a campaign trial is bounded in
    simulated time by its reboot cap and cycle watchdog.
    A retry redoes the whole task: a campaign shard, or a
    {!Sim_plan} (trace, block) group of policies x
    budgets sims (1,491 on the default DSE grid), left uncapped since
    a split group would re-prepare its stream and restart its ladders.
    [retries] defaults to 0, so by default the map is strict: the
    first worker death raises {!Worker_failed}; long campaigns pass a
    budget to self-heal. A task that raises an exception fails
    immediately — same binary, same input, so the failure is
    deterministic and re-running cannot help. Every worker leaving the
    pool is reaped, so no fds or zombies leak regardless of how the
    map ends. Determinism: results are assembled by task index, so a
    completed map equals the serial [List.map] regardless of crashes,
    retries or scheduling. *)

val chunk_size : jobs:int -> int -> int
(** The chunk width {!map_chunked} will use for [n] tasks: a dynamic
    size aiming for ~4 chunks per worker, capped at 256 items so one
    reply frame stays bounded. Exposed so a caller can tell how many
    pool tasks a {!map_chunked} call makes. *)

val map_chunked : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} with chunked dispatch: tasks are grouped into
    contiguous chunks of {!chunk_size} items and each chunk is one
    pool task — one pipe round trip and one [Marshal] frame per chunk
    instead of per item, which is what keeps sub-millisecond cells
    from drowning in protocol overhead. The map is strict, as {!map}
    with no retries: a crashed worker or a raising task fails it. The
    result equals [List.map f xs] for every worker count: input-order
    merge is preserved by the index-keyed reassembly underneath.

    No library caller is left: every pool task in the experiments and
    campaigns is already coarse. This and {!chunk_size} stay only
    because the [perf] harness times them for [dse-grid]'s
    [parallel.*] metrics, until those metrics measure the {!map} the
    libraries use. *)
