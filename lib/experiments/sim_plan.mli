(** The replay-sim scheduler of {!Dse.run} and
    {!Replay_sweep.replay_cells}: one pool task per (trace, block)
    group, {!Replay.Engine.simulate_many_collapsed}'s batching unit,
    costliest first. Outputs never depend on the order or [jobs]. *)

type task = {
  t_loaded : Replay.Engine.loaded;  (** forked workers inherit it *)
  t_block : int;  (** {!Replay.Engine.sim_block} of every model *)
  t_cost : int;  (** estimate: the run-stream length at [t_block] *)
  t_index : int array;  (** input positions, ascending *)
  t_models : Replay.Engine.model list;  (** in input order *)
}

val plan : (Replay.Engine.loaded * Replay.Engine.model) list -> task list
(** Partition (trace, model) pairs into (trace path, block) tasks,
    ordered by non-increasing [t_cost] (ties: first input position
    first). *)

val run :
  ?jobs:int ->
  ?retries:int ->
  ?on_event:(Parallel.event -> unit) ->
  task list ->
  Replay.Engine.sim list * int
(** One {!Replay.Engine.simulate_many_collapsed} call per task through
    {!Parallel.map}: the sims in input order, equal to [List.map] of
    {!Replay.Engine.simulate} over the planned pairs for every [jobs],
    plus the summed collapsed-LRU count. *)
