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

(** One callback per event kind, called directly by the emit sites
    and by the trace decoder; no event value is built. The runtime-hook
    answers ride along: [home] is an instruction fetch's NVM home
    address and [unit] a call's cached unit. The machine passes the
    "no runtime" answers (home = address, unit = [-1]); a caching
    runtime's answers are filled in once per event by the harness's
    enrichment adapter ({!Experiments.Toolchain}). *)
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
  miss_enter : string -> unit;  (** runtime *)
  miss_exit : string -> string -> int -> unit;
      (** runtime, disposition, fid. Disposition: ["cached"], ["nvm"],
          ["frozen"], ["too-large"] or (block cache) ["return"]. [fid]
          identifies the missed function when the runtime caches at
          function granularity (SwapRAM); -1 otherwise. *)
  eviction : int -> unit;  (** fid *)
  freeze : bool -> unit;  (** anti-thrashing freeze transition *)
  cache_flush : unit -> unit;
  block_load : int -> unit;  (** NVM address of the loaded block *)
  prefetch : int -> unit;
      (** fid cached ahead of its first call (prefetch extension) *)
  phase : string -> unit;  (** harness marker (boot/reboot) *)
}

val tee : sink -> sink -> sink
(** [tee a b] feeds every event to [a], then to [b]. *)

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

(** High-level events from the caching runtimes and the harness. *)
type runtime_event =
  | Miss_enter of { runtime : string }
  | Miss_exit of { runtime : string; disposition : string; fid : int }
  | Eviction of { fid : int }
  | Freeze of { on : bool }
  | Cache_flush
  | Block_load of { nvm : int }
  | Prefetch of { fid : int }
  | Phase of { name : string }

type event =
  | Instr of { pc : int; source : source }
  | Cycles of { unstalled : int; stall : int }
  | Mem_access of { addr : int; cls : access_class }
  | Call of { target : int }
  | Return
  | Runtime_event of runtime_event

val event_sink : (event -> unit) -> sink
(** The adapter that builds an event value per callback and hands it
    to [f]. Homes and units are dropped. *)

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
}

val create : unit -> t
val count_instr : t -> source -> unit

val set_sink : t -> sink option -> unit

val has_sink : t -> bool
(** [true] when a sink is attached. The superblock engine runs only
    without one. *)

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
