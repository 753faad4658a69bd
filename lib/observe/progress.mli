(** Host-side progress events for long-running fault-injection
    campaigns and sweeps. Purely observational: events carry aggregate
    counters only, and a campaign emits the same simulated results
    whether or not a sink is attached. *)

type worker_state = W_spawned | W_busy | W_idle | W_died

type event =
  | Campaign_started of { cells : int; trials : int }
  | Golden_ready of { cell : string; cycles : int }
  | Shard_done of {
      cell : string;
      shard : int;  (** 0-based shard index within the cell *)
      shards : int;
      trials_done : int;
      trials : int;
      cached : bool;  (** replayed from a progress checkpoint file *)
    }
  | Cell_done of {
      cell : string;
      trials : int;  (** trials actually aggregated (early stop) *)
      consistent : int;
      stopped_early : bool;
    }
  | Pool_event of string
      (** worker-pool lifecycle: spawns and deaths *)
  | Worker_state of { pid : int; state : worker_state; task : int }
      (** per-worker scheduling state; [task] is [-1] when not
          task-scoped (spawn, death without a known task) *)
  | Units_done of { label : string; finished : int; total : int }
      (** generic sweep progress: [finished] of [total] cells done *)
  | Campaign_done of { cells : int; trials : int; seconds : float }

type sink = event -> unit

val null : sink
val describe : event -> string

val plain : out_channel -> sink
(** Non-TTY renderer: no ANSI escapes. Milestone events print
    immediately; high-frequency events ([Shard_done], [Units_done])
    are rate-limited to one line per second; per-worker state churn
    is dropped. *)

val dashboard : out_channel -> sink
(** Live multi-line TTY display (campaign totals with rate and ETA,
    per-worker states, current cell, sweep progress, last event),
    redrawn in place at most every 0.1 seconds. Emits ANSI escapes — use {!auto} unless the stream is known
    to be a terminal. *)

val auto : out_channel -> sink
(** {!dashboard} when the channel is a TTY ([Unix.isatty]), {!plain}
    otherwise. *)
