(** Host-side experiment telemetry: an append-only JSONL run ledger of
    monotonic-clock spans, counters and worker-pool lifecycle records.

    The ledger is a sidecar artifact — it observes the experiment
    machinery (worker pools, sweeps, campaigns, toolchain phases) and
    must never perturb it. Two properties make that provable:

    - {b No feedback.} Emission is write-only: nothing in this module
      returns wall-clock values to the instrumented code, and every
      instrumentation site is a no-op when no sink is enabled, so a
      run with telemetry executes the same simulated work as a run
      without it. Deterministic artifacts (campaign JSON,
      [bench/report.json] cells, replay output) are byte-identical
      with telemetry on or off — asserted by the telemetry test suite
      and the CI purity gate.

    - {b Fork safety.} The sink is owned by the process that enabled
      it. Every record is flushed as it is written (no buffered bytes
      to duplicate across [fork]), emission checks the owner PID, and
      {!disarm} drops the inherited sink in forked workers — so a
      ledger has exactly one writer and worker activity is recorded
      from the parent's vantage point (dispatch/result frames), which
      is also what makes parallel and serial ledgers comparable. *)

(** {2 Emission} *)

val enable : string -> (unit, string) result
(** [enable path] opens [path] for writing (truncating) and installs
    it as the process-wide sink, stamping records with the monotonic
    nanosecond clock. [Error] if a sink is already enabled or
    the file cannot be created. *)

val disable : unit -> unit
(** Flush, close and uninstall the sink. No-op when none is enabled. *)

val disarm : unit -> unit
(** Drop an inherited sink without flushing or closing the shared
    file descriptor. Called in forked children (see
    {!Experiments.Parallel}); the parent's sink is unaffected. *)

val active : unit -> bool
(** A sink is enabled, armed, and owned by the calling process. *)

val manifest : (string * Json.t) list -> unit
(** Write the run-manifest header record: caller-provided fields
    (command, seed, jobs, engine, config fingerprints) plus the
    writing process's pid and argv. Conventionally the first record. *)

val span_begin : ?args:(string * Json.t) list -> cat:string -> string -> int
(** Open a span and return its ledger-stable id (0 when inactive —
    {!span_end} ignores it). *)

val span_end : ?args:(string * Json.t) list -> int -> unit

val with_span :
  ?args:(string * Json.t) list -> cat:string -> string -> (unit -> 'a) -> 'a
(** [with_span ~cat name f] runs [f ()] inside a span; the span is
    closed on exceptions too. When inactive this is exactly [f ()]. *)

val counter : string -> int -> unit
(** Record the current value of a named counter. *)

val worker : ?task:int -> ?args:(string * Json.t) list -> string -> pid:int -> unit
(** Worker-lifecycle record: [worker ev ~pid] with [ev] one of
    "spawn", "dispatch", "result", "died", "requeue",
    "exit", "reap". [task] is the pool task index ([-1]/absent when
    the event is not task-scoped). *)

(** {2 The ledger} *)

type record =
  | Manifest of { ts : int64; fields : (string * Json.t) list }
  | Span_begin of {
      ts : int64;
      id : int;
      cat : string;
      name : string;
      args : (string * Json.t) list;
    }
  | Span_end of { ts : int64; id : int; args : (string * Json.t) list }
  | Counter of { ts : int64; name : string; value : int }
  | Worker of {
      ts : int64;
      ev : string;
      pid : int;
      task : int;  (** -1 when not task-scoped *)
      args : (string * Json.t) list;
    }

val record_to_line : record -> string
(** One JSONL line, without the trailing newline. *)

val record_of_line : string -> (record, string) result

val read_file : string -> (record list, string) result
(** Parse a ledger. A torn trailing line (writer killed mid-append)
    is dropped; a malformed interior line is an [Error]. *)

(** {2 Exporters} *)

val chrome : record list -> string
(** Chrome trace-event JSON (chrome://tracing, Perfetto): host spans
    on track 0, one track per worker PID with its dispatch->result
    busy intervals, lifecycle instants, and counter series.
    Timestamps are rebased to the first record. *)

val summary : record list -> string
(** Utilization/throughput table: per-worker tasks, busy time and
    utilization over the pool window, lifecycle totals, span
    aggregates by (cat, name), and final/max counter values. *)

val csv : record list -> string
(** Flat rows [kind,name,cat,pid,task,start_ns,dur_ns,value]: paired
    spans and worker busy intervals with durations, lifecycle events
    and counter samples as points. *)
