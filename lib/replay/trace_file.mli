(** Compact binary trace format for the trace-once, simulate-many
    replayer.

    A trace file captures one complete run's {!Msp430.Trace.sink}
    stream — every counted instruction fetch and data access with its
    address and access class, the cycle accruals, call/return edges,
    runtime cache events and phase markers — together with the
    runtime-hook answers the sink carried while the machine was live
    (a call's cached unit, an instruction fetch's NVM home). Those
    recorded answers are what let a replay reproduce the executed
    {!Observe.Metrics} series and miss-ratio curve byte-for-byte
    without a machine to query. Writing and reading share the one
    sink interface: the writer is a sink, and [iter] drives one.

    Layout: magic ["SWTR"], a 16-bit format version (2), a
    length-prefixed JSON header describing the recording
    configuration, then a stream of records. An instruction is
    normally one record against a template. The writer interns a
    template per (pc, home of the first fetch, source) on first sight
    and writes its definition into the stream, as it interns strings.
    The template fixes the instruction's source, its fetches (fetch k
    is at pc + 2k, with a fixed home offset), its unstalled cycles and
    the order of its data accesses and call/return events. The record
    is then one tag byte holding the first hit bits, the template id
    unless it is the predicted one (the template that followed the
    previous one last time), any further hit bits, and the payload:
    each data address as a zigzag-varint delta from the previous data
    address, and a call's target and unit. Stall cycles are not
    stored: each FRAM access stalls by the header's [wait_states] on a
    read-cache miss or a write, plus [contention_penalty] from an
    instruction's second FRAM access on, and the writer checks every
    live stall against that rule. Whatever a template cannot express
    falls back to one tagged event per event with zigzag-varint
    payloads: events before the first instruction, runtime events and
    phase markers (and the rest of the instruction they fall in), an
    instruction whose events depart from its template, and the first
    sighting of a key. Strings and templates are interned in first-use
    order, and output is encoded at a cursor into one fixed buffer, so
    recording a Table-2 run costs little over an ordinarily observed
    run, and its trace takes about 2 bytes per instruction. An
    explicit end marker carries the event count, so truncation is
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

val create_writer : string -> header -> writer
(** [create_writer path header] opens [PATH.tmp] for writing and emits
    magic, version and header. Nothing appears under [path] until
    {!close_writer}. *)

val sink : writer -> Msp430.Trace.sink
(** The writer as a sink: each callback matches one event against the
    current instruction's template, or encodes it tagged, with the
    home and unit answers it is given (the emit sites ask the caching
    runtime's hooks for them, so the writer needs no adapter). A
    runtime event is encoded tagged. An instruction that departs from
    its template is rewritten in place as tagged events; nothing else
    is buffered. *)

val close_writer : writer -> unit
(** Write the end marker, close, and rename [PATH.tmp] over [path]. A
    reader therefore never finds a partial trace under [path], even
    after the recording process is killed. *)

val discard_writer : writer -> unit
(** Close and delete the partial [PATH.tmp] (crashed or abandoned
    runs); [path] is left as it was. *)

(** {2 Reading} *)

(** Readers stream the file through one fixed buffer, a window of
    64 KiB plus a few hundred bytes, so their memory does not grow with
    the trace size. While file bytes remain, the window holds at least
    one maximal record (192 bytes; the writer's template bounds keep a
    templated record that short) past every record boundary, so a
    record's fields are read without a refill test; the window slides
    one 64 KiB chunk on once the cursor crosses into the look-ahead.
    At the end of the file the window holds the file's tail followed by
    zeroed slack: a record cut short decodes out of the zeros and
    leaves the cursor past the last valid byte, which one check per
    record reports as {!Truncated} before any field is validated or
    reaches a sink. A length field is checked against the bytes left
    before anything is allocated: a corrupt one is an error, never a
    huge allocation. *)

val read_header : string -> (header, error) result
(** Decode just the header (cheap; reads the first buffer only, not
    the event stream). *)

val iter :
  string ->
  make:(header -> Msp430.Trace.sink) ->
  (header * int, error) result
(** [iter path ~make] decodes the header, builds a sink from it and
    streams every event through the sink's callbacks in recording
    order, with the recorded home and unit answers. A templated record
    is read and checked whole, then handed to the sink's [templated]
    callback, with its {!Msp430.Trace.template} (built once, when the
    stream defines it), its hit bits and its resolved payload; or, when
    the sink leaves [templated] unset, expanded by
    {!Msp430.Trace.expand} into its instruction's events, in the order
    the live run emitted them, with each FRAM access's stall re-derived
    from the hit bits and the header's timing. A tagged event is passed
    on as it is. Either way the sink gets exactly the recorded run's
    callbacks or their whole-instruction equivalent. The decode loop
    reads each record from the window (see above), dispatches on its
    tag through one jump table and calls the callbacks directly; it
    builds no {!Msp430.Trace.event} and only the rare
    {!Msp430.Trace.runtime_event}s as values, so a scan allocates
    nothing per instruction or access event — the fast path replay
    analyses are built on, and the same interface a live run feeds. Each record is checked for truncation
    once, after its fields are read, and every other check on it runs
    before any callback: a cut or damaged record is an error and no
    callback sees a byte past the end of the file or any part of the
    record. Returns the header and the number of sink events (the
    callbacks an expanding sink gets; definitions are not events),
    which equals the number the recording sink received, with or
    without [templated]. [Error] on bad magic, version
    skew (a version 1 trace is a [Version_mismatch]), truncation or
    corruption (including an event count that disagrees with the end
    marker, bytes after it, a varint over nine bytes, a template
    definition out of order or past the writer's bounds, a record
    against an undefined template or with hit bits past its template's,
    a call unit at or past the header's function count, or past
    [0x10000 / bytes] for [Lines bytes], and an instruction-fetch home
    outside [0..0xFFFF]), so a consumer never sizes a table from a
    damaged id. *)
