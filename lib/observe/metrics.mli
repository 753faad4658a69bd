(** Windowed time-series cache-dynamics sampler over the
    {!Msp430.Trace} event stream.

    Splits a run into fixed cycle-count windows, each accumulating
    execution counters, runtime cache events, reconstructed cache
    occupancy, and FRAM/SRAM address-access histograms. Windows close
    only on [Cycles] event boundaries, so per-window counters
    partition the run {e exactly}: summed over all windows they equal
    the aggregate trace totals, and (the energy model being linear)
    per-window energies sum to the whole-run energy report.

    Optionally an exact byte-weighted LRU reuse-distance tracker
    ({!Reuse}) rides the same stream and yields the miss-ratio curve:
    predicted miss rate vs. hypothetical SRAM cache budget, with a
    measured-rate cross-check at the configured budget. *)

(** What the reuse tracker treats as a cache unit. [Functions] is for
    SwapRAM (whole functions, its real cache granule, sized through
    {!hooks.h_fid_size}); [Lines n] tracks [n]-byte-aligned lines of
    ifetch addresses normalized to their NVM home — use the block
    cache's slot size, or a nominal line for the uncached baseline. *)
type reuse_mode = No_reuse | Functions | Lines of int

(** Runtime-specific resolvers, supplied by the harness. *)
type hooks = {
  h_fid_size : int -> int;
      (** code bytes of function [fid]; occupancy and
          function-granular reuse weights *)
  h_call_unit : int -> int option;
      (** resolved call target -> fid of the cached function when the
          target lies inside the cache region (i.e. the call hit) *)
  h_ifetch_home : int -> int;
      (** ifetch address -> NVM home address (identity outside cache
          regions) *)
}

val null_hooks : hooks
(** No cache attached: size 0, no call resolution, identity homes. *)

type spec = {
  window_cycles : int;  (** window length in total (CPU+stall) cycles *)
  buckets : int;  (** address-histogram buckets per region *)
  reuse : reuse_mode;
  config_budget : int;
      (** the runtime's configured cache capacity in bytes (0 = none);
          anchors the predicted-vs-measured MRC cross-check *)
}

val default_spec : spec
(** 65536-cycle windows, 48 buckets, no reuse tracking, no budget. *)

(** One closed (or in-progress) window. All counters cover only
    events inside the window. *)
type window = {
  w_start : int;  (** total cycle count when the window opened *)
  mutable w_unstalled : int;
  mutable w_stall : int;
  mutable w_instrs : int;
  mutable w_fram_read_hits : int;
  mutable w_fram_read_misses : int;
  mutable w_fram_writes : int;
  mutable w_sram_accesses : int;
  mutable w_periph : int;
  mutable w_calls : int;
  mutable w_returns : int;
  mutable w_unit_hits : int;
      (** calls whose resolved target was already cached *)
  mutable w_miss_entries : int;
  mutable w_exits_cached : int;
  mutable w_exits_nvm : int;
      (** miss exits that ran from NVM: "nvm", "frozen", "too-large" *)
  mutable w_evictions : int;
  mutable w_freezes : int;  (** freeze on-transitions *)
  mutable w_flushes : int;
  mutable w_block_loads : int;
  mutable w_prefetches : int;
  mutable w_occupancy : int;  (** cached bytes at window close *)
  w_fram_hist : Histogram.t;
  w_sram_hist : Histogram.t;
}

type t

val create :
  spec ->
  params:Msp430.Energy.params ->
  fram:int * int ->
  sram:int * int ->
  hooks ->
  t
(** [create spec ~params ~fram:(lo, hi) ~sram:(lo, hi) hooks]. The
    address ranges bound the histograms. *)

val observer : t -> Msp430.Trace.event -> unit
(** Feed one event; install via {!Msp430.Trace.set_observer} or the
    harness fan-out. Resolves the {!hooks} and dispatches to the
    entry points below. *)

(** {2 Per-event entry points}

    One function per event kind, with the runtime-hook answers passed
    in: [home] is the ifetch address's NVM home ({!hooks.h_ifetch_home}),
    [unit_id] a call's cached function ([h_call_unit], [-1] for none).
    {!observer} is a dispatcher over these; a trace replay calls them
    with the recorded answers and builds no {!Msp430.Trace.event}. *)

val on_cycles : t -> int -> int -> unit
(** [on_cycles t unstalled stall]; may close the current window. *)

val on_instr : t -> unit
val on_fram_read : t -> bool -> int -> unit
(** [on_fram_read t hit addr]: an FRAM data read. *)

val on_fram_ifetch : t -> bool -> int -> int -> unit
(** [on_fram_ifetch t hit addr home]. *)

val on_fram_write : t -> int -> unit

val on_sram : t -> int -> unit
(** An SRAM data read or write at [addr]. *)

val on_sram_ifetch : t -> int -> int -> unit
(** [on_sram_ifetch t addr home]. *)

val on_periph : t -> unit

val on_call : t -> int -> unit
(** [on_call t unit_id]; [unit_id >= 0] is a hit in the cache region. *)

val on_return : t -> unit
val on_miss_enter : t -> unit

val on_miss_exit : t -> string -> int -> unit
(** [on_miss_exit t disposition fid]. *)

val on_eviction : t -> int -> unit
val on_freeze : t -> bool -> unit
val on_cache_flush : t -> unit
val on_block_load : t -> unit
val on_prefetch : t -> int -> unit

val windows : t -> window list
(** Closed windows in run order, plus the in-progress window if it
    has recorded anything. *)

val window_cycles : window -> int
val window_misses : window -> int
(** Cache misses attributable to this window: cached + NVM miss exits
    (SwapRAM) plus block loads (block cache). *)

val window_miss_rate : window -> float
(** [misses / (unit hits + misses)], 0 when no references. *)

val occupancy : t -> int
(** Current reconstructed cache occupancy in bytes. *)

val spec : t -> spec
val reuse_tracker : t -> Reuse.t option

(** Energy of one window in nJ, split by what drew it; the split
    components sum to [e_total] (linear model). *)
type energy_split = {
  e_total : float;
  e_cpu : float;
  e_fram_read : float;
  e_fram_write : float;
  e_sram : float;
}

val window_energy : t -> window -> energy_split

val default_budgets : int list
(** Budget grid for miss-ratio curves, 256 B .. 8 KiB. *)

(** {2 Renderers} *)

val render_series : t -> string
(** Human-readable per-window table. *)

val render_csv : t -> string
(** Machine-readable CSV, one row per window, header included. *)

val render_heatmaps : ?max_rows:int -> t -> string
(** FRAM and SRAM address-space heatmaps, one row per window (merged
    down to [max_rows], default 24). *)

val render_mrc : ?budgets:int list -> t -> string
(** Miss-ratio curve table with bar chart, plus the
    predicted-vs-measured cross-check at the configured budget. *)
