(** Windowed time-series cache-dynamics sampler, a
    {!Msp430.Trace.sink} fed by a live run or a trace replay.

    Splits a run into fixed cycle-count windows, each accumulating
    execution counters, runtime cache events, reconstructed cache
    occupancy, and FRAM/SRAM address-access histograms. Windows close
    only on [cycles] callback boundaries, so per-window counters
    partition the run {e exactly}: summed over all windows they equal
    the aggregate trace totals, and (the energy model being linear)
    per-window energies sum to the whole-run energy report.

    Optionally an exact byte-weighted LRU reuse-distance tracker
    ({!Reuse}) rides the same stream and yields the miss-ratio curve:
    predicted miss rate vs. hypothetical SRAM cache budget, with a
    measured-rate cross-check at the configured budget. *)

(** What the reuse tracker treats as a cache unit. [Functions] is for
    SwapRAM (whole functions, its real cache granule, sized through
    [create]'s [fid_size]); [Lines n] tracks [n]-byte-aligned lines of
    ifetch addresses normalized to their NVM home (the sink's [home]
    answer) — use the block cache's slot size, or a nominal line for
    the uncached baseline. *)
type reuse_mode = No_reuse | Functions | Lines of int

type spec = {
  window_cycles : int;  (** window length in total (CPU+stall) cycles *)
  buckets : int;  (** address-histogram buckets per region *)
  reuse : reuse_mode;
  config_budget : int;
      (** the runtime's configured cache capacity in bytes (0 = none);
          anchors the predicted-vs-measured MRC cross-check *)
}

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
  fid_size:(int -> int) ->
  t
(** [create spec ~params ~fram:(lo, hi) ~sram:(lo, hi) ~fid_size]. The
    address ranges bound the histograms; [fid_size fid] is function
    [fid]'s code bytes (occupancy and function-granular reuse
    weights). *)

val sink : t -> Msp430.Trace.sink
(** The sampler's input, for a live run (through the harness fan-out)
    and a trace replay ({!Replay.Trace_file.iter}) alike. It uses the
    hook answers the sink receives: a call's [unit] ([>= 0] is a hit
    in the cache region) and an instruction fetch's NVM [home]. It
    takes a replay's templated instructions whole: a window counts
    them per template and adds their fixed share when it closes, and
    an instruction whose cycles may reach the window's end is expanded,
    so every window closes at the [cycles] event it would close at
    live. *)

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
(** The reuse tracker, brought up to date first: in [Lines] mode a run
    of same-line fetches reaches it as one [Reuse.access ~len] when the
    line changes, and the pending run is handed over here (and by
    {!render_mrc}). *)

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

val render_heatmaps : t -> string
(** FRAM and SRAM address-space heatmaps, one row per window (merged
    down to 24 rows). *)

val render_mrc : ?budgets:int list -> t -> string
(** Miss-ratio curve table with bar chart, plus the
    predicted-vs-measured cross-check at the configured budget. *)
