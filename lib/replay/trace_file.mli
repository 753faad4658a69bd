(** Compact binary trace format for the trace-once, simulate-many
    replayer.

    A trace file captures one complete run's {!Msp430.Trace} observer
    stream — every counted instruction fetch and data access with its
    address and access class, the cycle accruals, call/return edges,
    runtime cache events and phase markers — plus, per event, the
    answers the harness's runtime hooks gave while the machine was
    live (resolved call targets, NVM home addresses). Those recorded
    answers are what let a replay reproduce the executed
    {!Observe.Metrics} series and miss-ratio curve byte-for-byte
    without a machine to query.

    Layout: magic ["SWTR"], a 16-bit format version, a
    length-prefixed JSON header describing the recording
    configuration, then tag-byte events with zigzag-varint payloads.
    Instruction and access addresses are delta-encoded against the
    previous one of their kind, strings are interned in first-use
    order, and output is buffered, so recording a Table-2 run costs
    little over an ordinarily observed run (a few bytes per event).
    An explicit end marker carries the event count, so truncation is
    always detected. All encoding decisions are deterministic: the
    same run records byte-identical traces on any host. *)

(** What the recorded runtime caches, fixing the reuse/cache unit a
    replay simulates. [Functions sizes] is SwapRAM's function granule
    ([sizes.(fid)] = code bytes); [Lines n] is the block cache's slot
    (or the baseline's nominal line). *)
type granularity = Functions of int array | Lines of int

type header = {
  benchmark : string;
  seed : int;
  frequency_mhz : int;  (** 8 or 24 *)
  wait_states : int;  (** FRAM wait states at the recording frequency *)
  contention_penalty : int;
      (** extra stall per 2nd+ FRAM access within one instruction *)
  system : string;  (** {!Experiments.Toolchain.caching_name} *)
  placement : string;
  budget : int;  (** configured cache capacity in bytes; 0 = none *)
  granularity : granularity;
  fingerprint : int;
      (** FNV-1a fingerprint of the full recording configuration
          ({!Experiments.Toolchain.config_fingerprint}); lets sweep
          memos and [replay --check] reject stale traces *)
}

val version : int

type error =
  | Bad_magic
  | Version_mismatch of { found : int; expected : int }
  | Truncated of string
  | Corrupt of string

val error_message : error -> string

(** {2 Recording} *)

type writer

(** Runtime-hook answers recorded alongside the raw events: the
    results of {!Observe.Metrics.hooks}' [h_call_unit] (on [Call])
    and [h_ifetch_home] (on instruction-fetch reads), queried while
    the machine is live. *)
type enrich = {
  en_call_unit : int -> int option;
  en_ifetch_home : int -> int;
}

val null_enrich : enrich

val create_writer : string -> header -> writer
(** [create_writer path header] opens [path] for writing and emits
    magic, version and header. *)

val recorder : writer -> enrich -> Msp430.Trace.event -> unit
(** The observer to attach (via {!Msp430.Trace.add_observer}): encodes
    each event, consulting [enrich] only where the format stores hook
    answers. *)

val events_written : writer -> int

val close_writer : writer -> unit
(** Write the end marker and close. The file is complete and
    readable only after this returns. *)

val discard_writer : writer -> unit
(** Close and delete the partial file (crashed or abandoned runs). *)

(** {2 Reading} *)

(** One decoded event with its recorded hook answers. [d_unit] is
    meaningful on [Call] events (the recorded [h_call_unit] of the
    target); [d_home] on instruction-fetch reads (the recorded
    [h_ifetch_home] of the address — equal to the address itself
    outside any cache region). *)
type decoded = {
  d_ev : Msp430.Trace.event;
  d_unit : int option;
  d_home : int;
}

(** Readers stream the file through one fixed 64 KiB buffer, so their
    memory does not grow with the trace size. A length field is checked
    against the bytes left before anything is allocated: a corrupt one
    is an error, never a huge allocation. *)

val read_header : string -> (header, error) result
(** Decode just the header (cheap; reads the first buffer only, not
    the event stream). *)

(** Flat per-event callbacks for [iter]. The decode loop calls these
    directly without materializing [Trace.event] values, so a visitor
    scan allocates nothing per event — this is the fast path replay
    analyses are built on. Addresses and program counters arrive
    delta-reconstructed; [v_call]'s second argument is the recorded
    unit id or [-1] when none was recorded; home addresses equal the
    access address outside any cache region. *)
type visitor = {
  v_instr : int -> int -> unit;  (** source index, pc *)
  v_cycles : int -> int -> unit;  (** unstalled, stall *)
  v_fram_read : bool -> int -> unit;  (** hit, addr (data read) *)
  v_fram_ifetch : bool -> int -> int -> unit;  (** hit, addr, home *)
  v_fram_write : int -> unit;
  v_sram_read : int -> unit;
  v_sram_ifetch : int -> int -> unit;  (** addr, home *)
  v_sram_write : int -> unit;
  v_periph : int -> unit;
  v_call : int -> int -> unit;  (** target, unit (-1 when unrecorded) *)
  v_return : unit -> unit;
  v_miss_enter : string -> unit;
  v_miss_exit : string -> string -> int -> unit;
      (** runtime, disposition, fid *)
  v_eviction : int -> unit;
  v_freeze : bool -> unit;
  v_cache_flush : unit -> unit;
  v_block_load : int -> unit;
  v_prefetch : int -> unit;
  v_phase : string -> unit;
}

val iter : string -> make:(header -> visitor) -> (header * int, error) result
(** [iter path ~make] decodes the header, builds a visitor from it and
    streams every event through the visitor's callbacks in recording
    order. Returns the header and event count; same error conditions
    as {!fold} (which is a wrapper over this loop). *)

val fold :
  string ->
  init:(header -> 'a) ->
  f:('a -> decoded -> 'a) ->
  ('a * header * int, error) result
(** [fold path ~init ~f] streams every event through [f] in recording
    order; [init] receives the header first. Returns the final
    accumulator, the header and the event count; [Error] on bad
    magic, version skew, truncation or corruption (including an event
    count that disagrees with the end marker). *)
