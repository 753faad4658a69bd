(** The charged-instruction core shared by the modeled runtimes
    (SwapRAM's miss handler, the block cache's runtime, the
    checkpointing runtime).

    The paper's runtimes are MSP430 assembly executing from FRAM; the
    simulator's are OCaml. Each modeled runtime instruction is charged
    as one counted FRAM instruction fetch from a reserved runtime
    region plus {!cycles_per_instr} unstalled cycles, so Figure 8's
    source breakdown, Table 2's cycle counts, the read cache, wait
    states and power triggers all see the runtime as if it ran on the
    CPU. Each runtime keeps its per-phase instruction counts in its
    own [Costs]. *)

val cycles_per_instr : int
(** Unstalled cycles per modeled runtime instruction. *)

val memcpy_per_word_instrs : int
(** Modeled copy-loop instructions per copied word; the word's read
    and write are counted data accesses on top. *)

(** A reserved FRAM region the runtime's instructions are fetched
    from, attributed to [source] in the Fig. 8 breakdown. The cursor
    walks the region two bytes per instruction and wraps at [size]. *)
type region = private {
  mem : Memory.t;
  base : int;
  size : int;
  source : Trace.source;
  mutable cursor : int;
}

val region : Memory.t -> base:int -> size:int -> Trace.source -> region
(** A region with its cursor at [base]. *)

val reset : region -> unit
(** Rewind the cursor to [base] (reboot). *)

val charge : region -> int -> unit
(** [charge r n] executes [n] modeled instructions from [r]: per
    instruction, {!Memory.begin_instruction}, the [instr] event and a
    counted ifetch at the cursor, the instruction count and
    {!cycles_per_instr} unstalled cycles. Allocation-free. May raise
    {!Memory.Power_loss} at a fetch, leaving that instruction
    uncounted. *)

val copy :
  region -> src:int -> dst:int -> words:int -> on_word:(unit -> unit) -> unit
(** [copy r ~src ~dst ~words ~on_word] copies [words] words from [src]
    to [dst], per word charging {!memcpy_per_word_instrs} from [r],
    then a counted data read and a counted write, then calling
    [on_word]. A power loss between words leaves [on_word] called
    exactly once per completed write. *)

val emit : Memory.t -> Trace.runtime_event -> unit
(** Hand a runtime event to the attached sink, if any. *)

val classifier : handler:region -> memcpy:region -> int -> Trace.source
(** The Fig. 8 instruction-source classifier for a CPU running with
    these regions installed: addresses inside a region classify as its
    source, all others by memory region. *)
