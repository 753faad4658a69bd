(** MSP430 CPU: fetch/decode/execute loop with cycle accounting, flag
    semantics per SLAU144, and trap vectors used by the software
    caching runtimes to interpose on execution. *)

val trap_base : int
(** PC values at or above this invoke a registered trap handler
    instead of fetching from memory. *)

type trap_action = Goto of int | Halt_machine

type t

(** Flag bit positions in SR. *)

val flag_c : int
val flag_z : int
val flag_n : int
val flag_v : int

(** Execution engine used by {!run}.

    [Reference] is the plain fetch/decode/execute step loop, and the
    oracle the other engine is tested against.
    [Superblock] (the default) records straight-line instruction runs
    on first execution — each instruction compiled into a closure
    specialised on its opcode, width and addressing modes, cycle costs
    and source classification precomputed — and replays them without
    re-decoding.
    Replay still issues every instruction-word fetch through the
    counted memory path (the exact self-validating pattern the decode
    cache uses), so cycles, stalls, energies, hardware-cache state and
    power-failure timing are bit-identical to the reference engine;
    code rewritten under the cache (SRAM copy-in, outage wipes,
    self-modifying code) is caught by the word comparison and falls
    back to a cold decode. An observed run (a sink attached) replays
    the same blocks through an observed loop that emits every event
    [step] does, in the same order, so both engines give a sink the
    same stream and a recording the same bytes; {!run} picks the loop
    once per run. *)
type engine = Reference | Superblock

val create : Memory.t -> t
val mem : t -> Memory.t
val stats : t -> Trace.t
val halted : t -> bool
val reg : t -> Isa.reg -> int
val set_reg : t -> Isa.reg -> int -> unit

val engine : t -> engine
val set_engine : t -> engine -> unit

(** What the superblock engine did so far, summed over every {!run}
    on this CPU. Bumped per block or per fallback; the reference
    engine leaves them at zero. *)
type counters = {
  blocks_recorded : int;  (** superblocks stored after a first execution *)
  instrs_recorded : int;  (** instructions executed while recording *)
  blocks_replayed : int;  (** replays of a stored superblock *)
  instrs_replayed : int;  (** instructions run from a stored record *)
  first_word_fallbacks : int;
      (** replayed instructions whose opcode word had changed (SRAM
          copy-in, outage wipe, self-modifying code): decoded cold *)
  ext_word_fallbacks : int;
      (** the same, for a changed extension word *)
  invalidations : int;
      (** stored superblocks dropped: one per fallback, plus every
          stored block when {!set_engine} or {!set_classifier}
          discards them all *)
}

val engine_counters : t -> counters
val engine_name : engine -> string
val engine_of_string : string -> engine option

val set_classifier : t -> (int -> Trace.source) -> unit
(** Classify instruction fetch addresses for the Figure-8 breakdown.
    The default classifies by memory region. *)

val register_trap : t -> int -> (t -> trap_action) -> unit

val set_periodic_hook : t -> interval:int -> (t -> unit) option -> unit
(** Arm a periodic hook (the checkpointing runtime's interval timer):
    [f] fires between instructions every [interval] architectural
    instructions, under both execution engines at identical
    boundaries (superblocks never execute across a hook deadline).
    The next firing is re-anchored before [f] runs, so simulated work
    the hook charges counts toward its own period and a [Power_loss]
    escaping from [f] leaves the hook armed for the next period.
    [None] disarms. Raises [Invalid_argument] on [interval <= 0]. *)

val rearm_periodic_hook : t -> unit
(** Restart the current period from the present instruction count
    (called after a post-outage restore so a partially elapsed period
    does not fire immediately on resume). No-op when disarmed. *)

val get_flag : t -> int -> bool
val set_flag : t -> int -> bool -> unit

exception Trap_missing of int

val step : t -> unit
(** Execute one instruction or one trap-handler invocation. May raise
    {!Memory.Fault}, {!Memory.Power_loss}, {!Trap_missing} or
    [Failure]; {!run} converts all of these into a structured
    outcome. *)

val power_reset : t -> unit
(** Power-on reset: clear the (volatile) registers and halt latch.
    Trap handlers and the classifier describe the runtime image in
    FRAM and survive; the caller wipes SRAM, reboots the runtime's
    FRAM metadata and reloads SP/PC. *)

type fault_info = { fault_pc : int; fault_msg : string }

(** How a bounded run ended. No simulated failure mode — memory
    faults, missing trap vectors, runtime invariant violations, an
    injected power failure — escapes {!run} as an OCaml exception. *)
type run_outcome =
  | Halted
  | Fuel_exhausted
  | Faulted of fault_info
  | Power_lost

val outcome_name : run_outcome -> string

val run : ?fuel:int -> t -> run_outcome
