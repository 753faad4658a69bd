(** Cycle-attributed profiler, a {!Msp430.Trace.sink}.

    Every counted cycle and memory access is attributed to the
    function whose instruction caused it (context set by [instr]
    callbacks, symbolized through {!Symtab}). Counter increments are
    mirrored to the sink after the aggregates were bumped, so the
    per-function sums reconcile with the aggregate trace totals
    {e exactly} — the conservation property tests assert equality,
    not approximation. Energy attribution applies the (linear)
    {!Msp430.Energy} model to each slice, so slice energies sum to
    the whole-run report.

    A shadow call stack ([call]/[return] callbacks) keys the
    caller-aggregated folded-stack output ([caller;callee cycles]
    lines, flame-graph input format). It holds at most 128 callers;
    deeper calls are counted and unwound by their returns, so a
    return never pops a frame that is still live. *)

type counters = {
  mutable instrs : int;
  mutable unstalled : int;
  mutable stall : int;
  mutable fram_read_hits : int;
  mutable fram_read_misses : int;
  mutable fram_writes : int;
  mutable sram_accesses : int;
}

type t

val create : Symtab.t -> t

val sink : t -> Msp430.Trace.sink
(** The profiler's input; install via {!Msp430.Trace.set_sink} (or
    the harness's fan-out). *)

val totals : t -> counters
(** Sum over all attributed functions. Equals the aggregate
    {!Msp430.Trace} totals for any complete observation. *)

val cycles_of : counters -> int

type row = { name : string; c : counters; energy_nj : float }

val rows : params:Msp430.Energy.params -> t -> row list
(** Non-empty functions, most cycles first. *)

val energy_of : Msp430.Energy.params -> counters -> float

val render : ?top:int -> params:Msp430.Energy.params -> t -> string
(** Human-readable profile table with a TOTAL row. *)

val folded_lines : t -> string list
(** Caller-aggregated ["a;b;c cycles"] lines (sorted), the standard
    folded-stack flame-graph input. *)

val folded_total : t -> int
(** Sum of folded-stack cycle weights; equals [cycles_of (totals t)]
    for a complete observation. *)

val source_share : t -> Msp430.Trace.source -> float
(** Fraction of attributed cycles executed from the given instruction
    source (e.g. miss-handler share = [Handler] + [Memcpy]). *)

val calls_to : t -> string -> int
(** Dynamic calls whose target symbolized to [name]. Calls that miss
    land on the trap vector and count under the trap's name, so a
    cacheable function's total calls is [calls_to name + miss-handler
    exits for its fid]. *)

val miss_exits_of : t -> int -> int
(** Swapram miss-handler exits (any disposition) attributed to a fid. *)

val counters_of : t -> string -> counters option
(** Raw attributed counters for one function, if it ever ran. *)
