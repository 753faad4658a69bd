(** Execution statistics: memory-access accounting by region and
    purpose, wait-state/stall accounting, and the dynamic-instruction
    source breakdown used for the paper's Figure 8. *)

(** Where an executed instruction was fetched from. [Handler] covers
    the caching runtimes and [Memcpy] their code-copy loops, both of
    which execute from FRAM. *)
type source = App_fram | App_sram | Handler | Memcpy

val source_index : source -> int
val source_count : int
val source_name : source -> string

(** {2 Observability event stream}

    Every counted quantity is mirrored, after the counters update, to
    the optional {!sink}, so an attached profiler ({!Observe}) can
    re-derive the aggregate totals exactly. The sink is a pure
    spectator: it cannot influence timing, counting or machine state.
    The same record is what a trace replay ({!Replay.Trace_file.iter})
    drives, so a consumer is written once for live and replayed runs. *)

(** {2 Instruction templates}

    A trace stores most instructions as one record against a
    {!template}: the instruction's fixed shape, interned once per trace
    ({!Replay.Trace_file}). A record adds only what varies: the FRAM
    read-cache hit bits and the payload. *)

(** Op kinds. An op is one int: the kind in the low four bits and,
    above them, the home offset (home - address) of a fetch or the
    unstalled count of a [cycles] event; other kinds carry nothing.
    Fetch [k] of an instruction at [pc] is at [pc + 2k]. *)

val op_fram_ifetch : int
val op_sram_ifetch : int
val op_fram_read : int
val op_fram_write : int
val op_sram_read : int
val op_sram_write : int
val op_periph : int
val op_cycles : int
val op_call : int
val op_return : int
val op_kinds : int

val stall_rule : wait_states:int -> contention:int -> bool -> int -> int
(** [stall_rule ~wait_states ~contention hit n] is the stall of an
    instruction's [n]-th FRAM access ([hit] is false for a write), as
    {!Memory} charges it: [wait_states] on a read-cache miss, plus
    [contention] from the second access on. The trace writer checks
    live stalls against it, and a templated instruction's stalls are
    derived from it. *)

(** One instruction's shape: its events after the [instr], in order,
    less the stall [cycles] events, under the recording's timing. A
    template is built once, when the trace defines it, and is shared by
    every record against it. The fields after [tp_contention] are
    derived from the ops. *)
type template = {
  tp_id : int;  (** dense per trace, in definition order *)
  tp_source : int;  (** source index ({!source_index}) *)
  tp_pc : int;
  tp_ops : int array;
  tp_wait_states : int;
  tp_contention : int;
  tp_nbits : int;
      (** hit bits: one per FRAM fetch and FRAM read, in op order (bit
          0 first) *)
  tp_payload : int;
      (** payload slots: one per data access (its address) and two per
          call (target, unit), in op order *)
  tp_unstalled : int;  (** the sum of the [cycles] ops *)
  tp_frams : int;  (** FRAM accesses: fetches, reads and writes *)
  tp_writes : int;  (** FRAM writes *)
  tp_events : int;  (** {!record_events} with every hit bit a miss *)
  tp_hit_events : int;
      (** how the hits lower that: not at all (0), by the first bit
          (1), by each set bit (2), or found by walking the ops (3, for
          negative timing) *)
}

val template :
  id:int ->
  source:int ->
  pc:int ->
  ops:int array ->
  wait_states:int ->
  contention:int ->
  template
(** Builds a template and its derived fields. *)

val count_ops : template -> int -> int
(** [count_ops tp kind] is the number of [kind] ops. *)

val payload_slots : template -> int list -> int array
(** [payload_slots tp kinds] are the payload slots of the ops of
    [kinds], in op order: a data access's address, or a call's unit. *)

val fetch_runs : template -> line_bytes:int -> int array
(** [fetch_runs tp ~line_bytes] are the fetch homes of [tp] bucketed to
    [line_bytes]-byte lines, as [line; count] pairs of consecutive
    fetches of one line, in op order. *)

val popcount : int -> int
(** Set bits of a hit-bit word (at most 32 bits). *)

val record_stall : template -> int -> int
(** [record_stall tp bits] is the stall total of a record: the sum of
    {!stall_rule} over its FRAM accesses. *)

val record_events : template -> int -> int
(** [record_events tp bits] is the number of callbacks {!expand} makes
    for the record. *)

(** High-level events from the caching runtimes and the harness, rare
    enough that a sink takes them as one value each. A [Miss_exit]'s
    disposition is ["cached"], ["nvm"], ["frozen"], ["too-large"] or
    (block cache) ["return"]; its [fid] identifies the missed function
    when the runtime caches at function granularity (SwapRAM), and is
    -1 otherwise. [Block_load]'s [nvm] is the loaded block's NVM
    address, [Prefetch]'s [fid] a function cached ahead of its first
    call (prefetch extension), [Freeze] an anti-thrashing freeze
    transition and [Phase] a harness marker (boot/reboot). *)
type runtime_event =
  | Miss_enter of { runtime : string }
  | Miss_exit of { runtime : string; disposition : string; fid : int }
  | Eviction of { fid : int }
  | Freeze of { on : bool }
  | Cache_flush
  | Block_load of { nvm : int }
  | Prefetch of { fid : int }
  | Phase of { name : string }

(** The one event interface: one callback per instruction or access
    event kind, called directly by the emit sites and by the trace
    decoder, so no value is built per instruction or access, and one
    [runtime] callback for the {!runtime_event}s. The runtime-hook
    answers ride along: [home] is an instruction fetch's NVM home
    address and [unit] a call's cached unit. The emit sites ask the
    installed runtime's hooks for them ({!t.ifetch_home},
    {!t.call_unit}), and pass the "no runtime" answers (home =
    address, unit [-1]) where none is installed, so every sink gets
    the same answers.

    A trace replay can also hand over a whole templated instruction in
    one call, [templated]. A sink that sets it takes such an
    instruction whole and must give the same result as the callbacks
    {!expand} would make; a sink that leaves it [None] gets those
    callbacks. The live machine calls only the per-event callbacks. *)
type sink = {
  instr : int -> int -> unit;
      (** source index ({!source_index}), pc: an instruction begins;
          [pc] is its fetch address — the attribution context for
          every following event until the next [instr] *)
  cycles : int -> int -> unit;  (** unstalled, stall *)
  fram_read : bool -> int -> unit;  (** hit, addr (data read) *)
  fram_ifetch : bool -> int -> int -> unit;  (** hit, addr, home *)
  fram_write : int -> unit;
  sram_read : int -> unit;
  sram_ifetch : int -> int -> unit;  (** addr, home *)
  sram_write : int -> unit;
  periph : int -> unit;
  call : int -> int -> unit;  (** target, unit ([-1] for none) *)
  return : unit -> unit;
  runtime : runtime_event -> unit;
  templated : (template -> int -> int array -> unit) option;
      (** [templated tp bits payload]: one instruction against [tp],
          with its hit bits ([bits lsr tp.tp_nbits = 0]) and its
          [tp.tp_payload] payload slots, data addresses absolute and a
          call's unit [-1] for none. The payload array is the caller's
          scratch, valid only during the call. *)
}

val expand : sink -> template -> int -> int array -> unit
(** The default adapter: [expand s tp bits payload] makes the
    per-event callbacks of the instruction, in the order the live run
    emitted them, each FRAM access followed by its {!stall_rule} stall
    when that is not zero. *)

val tee : sink -> sink -> sink
(** [tee a b] feeds every event to [a], then to [b]. A templated
    instruction goes whole to each, [a] first, and is expanded for
    either that leaves [templated] unset; [templated] is [None] only
    when both leave it unset. *)

(** {2 Stored events}

    A value per event, for the consumers that keep events: the bounded
    {!Observe.Events} ring (which the Chrome exporter reads) and
    tests. *)

(** One counted memory access, classified the way the energy model
    prices it. *)
type access_class =
  | Fram_read of { hit : bool; ifetch : bool }
  | Fram_write
  | Sram_read of { ifetch : bool }
  | Sram_write
  | Periph_access

type event =
  | Instr of { pc : int; source : source }
  | Cycles of { unstalled : int; stall : int }
  | Mem_access of { addr : int; cls : access_class }
  | Call of { target : int }
  | Return
  | Runtime_event of runtime_event

val event_sink : (event -> unit) -> sink
(** The adapter that builds an event value per callback and hands it
    to [f]. Homes and units are dropped, and [templated] is [None]. *)

type t = {
  mutable unstalled_cycles : int;
  mutable stall_cycles : int;
  mutable instructions : int;
  instr_by_source : int array;
  mutable fram_ifetch : int;
  mutable fram_data_reads : int;
  mutable fram_writes : int;
  mutable fram_read_hits : int;  (** hardware read-cache hits *)
  mutable sram_ifetch : int;
  mutable sram_data_reads : int;
  mutable sram_writes : int;
  mutable periph_accesses : int;
  mutable sink : sink option;
  mutable ifetch_home : (int -> int) option;
      (** the installed runtime's NVM home of an instruction fetch
          address; [None] when it has none (the home is the address) *)
  mutable call_unit : (int -> int) option;
      (** the installed runtime's cached unit of a call target, [-1]
          for none; [None] when it caches no units. A runtime's
          [install] sets both next to its {!Cpu.set_classifier} call.
          The emit sites ask them only while a sink is attached. *)
}

val create : unit -> t
val count_instr : t -> source -> unit

val set_sink : t -> sink option -> unit

val snapshot : t -> t
(** The counters as they stand, with no sink and no hooks: a plain
    value, which compares and marshals, and which later execution
    leaves as it is. *)

val home : t -> int -> int
(** [home t addr] is the fetch [addr]'s NVM home: {!t.ifetch_home}'s
    answer, or [addr]. *)

val unit_of : t -> int -> int
(** [unit_of t target] is the call [target]'s cached unit:
    {!t.call_unit}'s answer, or [-1]. *)

val has_sink : t -> bool
(** [true] when a sink is attached. {!Cpu.run} then takes the
    superblock engine's observed loop, which emits every event. *)

val add_unstalled : t -> int -> unit
val add_stall : t -> int -> unit
(** All cycle accrual funnels through these two, so the sink sees
    every cycle exactly once. *)

val fram_accesses : t -> int
(** Every CPU access to the FRAM region, hit or miss — the quantity
    the paper's Table 2 counts. *)

val sram_accesses : t -> int
val total_cycles : t -> int
val code_accesses : t -> int
val data_accesses : t -> int
val instr_fraction : t -> source -> float
val pp : Format.formatter -> t -> unit
