(** Replay kernel: stream a recorded trace through pluggable
    memory-system models without re-executing the CPU.

    {!load} makes one decoding pass over the file and reduces it to
    sufficient statistics — access-class counts, the per-instruction
    FRAM contention count, runtime-event counters and the ordered
    cache-unit reference stream. Everything downstream is then
    arithmetic over those statistics: {!exact} retargets wait states
    and frequency in O(1), {!simulate} runs a fully-associative cache
    model over the reference stream (microseconds per configuration),
    and {!mrc} rebuilds the exact Mattson miss-ratio curve. That
    load-once / simulate-many split is what turns one multi-second
    simulation into thousands of configuration evaluations.

    Exactness: at the recording configuration, {!exact} reproduces
    the executor's cycles, energy and every counter bit-for-bit
    (enforced — {!load} fails on a trace whose recorded stall total
    cannot be reconstructed), and {!replay_metrics} reproduces the
    executed {!Observe.Metrics} windows and MRC byte-for-byte. *)

type error = Format_error of Trace_file.error | Model_error of string

val error_message : error -> string

(** Counters reconstructed from a swapram-recorded trace, matching
    [Swapram.Runtime.stats], or from a block-cache trace, matching
    [Blockcache.Runtime.stats]. Fields not emitted as events
    (word-copy counts, hash probes) are not reconstructable and are
    not included. *)
type runtime_counts = {
  rc_misses : int;
  rc_evictions : int;
  rc_aborts : int;  (** swapram "nvm" dispositions *)
  rc_frozen : int;
  rc_too_large : int;
  rc_prefetches : int;
  rc_returns : int;  (** block cache return-trap entries *)
  rc_flushes : int;
  rc_block_loads : int;
}

type loaded = {
  header : Trace_file.header;
  path : string;
  events : int;
  bytes : int;  (** file size on disk *)
  (* execution statistics, mirroring Msp430.Trace.t *)
  instructions : int;
  by_source : int array;
  unstalled : int;
  recorded_stall : int;
  fram_ifetch : int;
  fram_data_reads : int;
  fram_read_hits : int;
  fram_writes : int;
  sram_ifetch : int;
  sram_data_reads : int;
  sram_writes : int;
  periph_accesses : int;
  calls : int;
  returns : int;
  contention_events : int;
      (** 2nd-and-later FRAM accesses within one instruction; each
          cost one contention-penalty stall at any frequency *)
  runtime : runtime_counts;
  refs : refs;
  units : int;
      (** one past the highest unit id in [refs] (at the recorded
          granularity) — the direct-index bound for per-unit state *)
}

(** The ordered cache-unit reference stream. [Fn_refs] (SwapRAM
    recordings): one entry per call, [(fid lsl 1) lor miss], where
    [miss] marks calls that trapped to the miss handler. [Line_refs]
    (block-cache / baseline recordings): instruction-fetch homes
    bucketed to recorded-granularity line indices and run-length
    encoded as [line; length] pairs — consecutive fetches from one
    line collapse into a run, which is exact for every supported
    eviction policy (a repeat access can neither miss nor change the
    victim order) and keeps per-model simulation proportional to line
    transitions, not fetches. *)
and refs = Fn_refs of int array | Line_refs of int array

val load : string -> (loaded, error) result
(** One full decoding pass; validates internal consistency (the
    recorded stall total must be reconstructable from the recorded
    wait states and contention events). *)

val load_through :
  (Msp430.Trace.sink -> Msp430.Trace.sink) -> string -> (loaded, error) result
(** [load_through f] is {!load} with its accumulating sink passed
    through [f] first. [load] is [load_through Fun.id]; the tests pass
    an [f] that sets [templated] to [None], so that templated
    instructions reach the sink expanded, and check that the two loads
    are equal. *)

val load_cached : string -> (loaded, error) result
(** [load], backed by a process-local cache keyed by path. A cached
    entry is served only while the file's size, mtime {e and} header
    fingerprint all match the load-time values, so rewriting a trace
    in place under a different recording configuration always forces
    a fresh decode. No library or CLI path uses it: the DSE carries
    each decoded trace as a value. Only the [perf] benchmark's
    workloads call it and {!clear_load_cache}. *)

val clear_load_cache : unit -> unit
(** Drop every cached {!load_cached} entry (tests; memory pressure). *)

val unit_bytes : loaded -> int -> int
(** Size in bytes of cache unit [u] under the recording granularity. *)

val footprint : loaded -> int
(** Total bytes across distinct referenced units. *)

(** {2 Exact replay (wait-state / frequency retargeting)} *)

type totals = {
  t_frequency_mhz : int;
  t_wait_states : int;
  t_unstalled : int;
  t_stall : int;
  t_cycles : int;
  t_fram_read_misses : int;
  t_energy_nj : float;
  t_time_s : float;
}

val exact : ?frequency_mhz:int -> loaded -> (totals, string) result
(** Recompute cycles, energy and time at [frequency_mhz] (8 or 24;
    default the recording frequency). The instruction stream, access
    stream and hardware read-cache behaviour are frequency-independent
    on this platform, so the retargeted totals equal a fresh execution
    at that frequency — the differential tests assert this
    bit-for-bit. *)

(** {2 Cache-model simulation} *)

type policy = Lru | Lfu | Cost_aware

val policy_name : policy -> string
val policy_of_string : string -> policy option

type model = {
  m_budget : int;  (** capacity in bytes *)
  m_policy : policy;
  m_block : int option;
      (** re-bucket [Line_refs] to this line size (default: the
          recorded granularity), honoured at the nearest multiple of
          the recorded granularity — refs cannot be split below the
          line size they were bucketed at; ignored for [Fn_refs] *)
}

type sim = {
  s_refs : int;
  s_misses : int;
  s_cold_misses : int;
  s_evictions : int;
  s_bytes_loaded : int;
  s_miss_rate : float;
}

val simulate : loaded -> model -> sim
(** Fully-associative byte-capacity cache over the reference stream.
    Units larger than the budget never cache (they re-miss on every
    reference, as SwapRAM's too-large path runs from NVM). [Lru]
    evicts least-recently-used; [Lfu] least-frequently-used (LRU
    tie-break); [Cost_aware] the unit with the smallest
    reference-count x size product — the cheapest expected re-copy
    (LRU tie-break). At a budget B no smaller than the largest unit,
    [Lru]'s misses and bytes loaded equal
    [Observe.Reuse.predicted_misses ~budget:B] and
    [Observe.Reuse.fill_bytes ~budget:B] over the same stream
    (property-tested). Below that the two differ: the MRC never
    bypasses a unit, so a too-large unit still pushes smaller ones
    down its stack. *)

val simulate_many : loaded -> model list -> sim list
(** Batched {!simulate}: results are returned in input order and are
    exactly [List.map (simulate l) models] (property-tested). Models
    are grouped by effective block size, and each block's models share
    one pre-bucketed reference stream. Within a block, each policy's
    budgets form one ladder. [Lru] ladders collapse into
    {!simulate_all_budgets}'s single-pass stack kernel. [Lfu] and
    [Cost_aware] ladders take one cache pass per budget {e interval}:
    a pass at budget B takes the same branch at every capacity test
    for all budgets in [\[B, hi)], where [hi] is the least
    [occupancy + bytes] of an eviction and the least size of a
    bypassed unit, so it answers every ladder budget below [hi]
    (property-tested). This is the kernel the design-space explorer
    fans out over. *)

val sim_block : loaded -> model -> int
(** The block size [model] is simulated at: its [m_block] rounded down
    to a whole number of recorded lines (at least one), else the
    recorded line. Function traces have no block axis and give one
    constant. {!simulate_many} prepares one run stream per distinct
    value. *)

val simulate_many_collapsed : loaded -> model list -> sim list * int
(** {!simulate_many} plus the number of [Lru] models whose budget axis
    was collapsed into a stack-distance pass (0 when none was) — the
    [sims_collapsed] accounting surfaced by the DSE report. Budgets
    that an [Lfu] or [Cost_aware] ladder answers from an earlier
    budget's interval are not counted. *)

val simulate_all_budgets : ?block:int -> loaded -> int list -> sim list
(** Exact [Lru] results for every budget at once:
    [simulate_all_budgets ?block l budgets] equals
    [List.map (fun b -> simulate l {m_budget = b; m_policy = Lru;
    m_block = block}) budgets] (property-tested), but runs one
    byte-weighted stack-distance pass per {e eligibility class} of the
    budget list instead of one cache pass per budget. LRU's inclusion
    property survives evict-until-fit with variable-size units (the
    resident set is always a maximal byte-fitting recency-stack
    prefix), so a reference's stack distance d decides hit-or-miss for
    every budget simultaneously: miss iff d > B. Too-large-unit bypass
    is the one budget-dependent filter, so budgets are grouped at the
    distinct unit sizes falling inside the budget range — typically
    one class for line traces and a handful for function traces — and
    each class feeds its eligible runs to one {!Observe.Reuse}
    tracker. *)

val simulate_runs :
  units:int -> budget:int -> policy:policy -> (int * int * int) array -> sim
(** Run the cache-model pass over a synthetic run stream of
    [(unit, bytes, len)] triples with unit ids in [0, units). A unit's
    [bytes] must be the same in every run mentioning it (as recorded
    streams guarantee). Test hook: lets differential properties drive
    {!simulate}'s kernel on arbitrary streams without recording a
    trace. *)

val simulate_runs_all_budgets :
  units:int -> budgets:int list -> (int * int * int) array -> sim list
(** {!simulate_all_budgets}'s kernel over a synthetic run stream;
    equals [List.map (fun b -> simulate_runs ~units ~budget:b
    ~policy:Lru runs) budgets] (property-tested). Same per-unit
    constant-[bytes] requirement as {!simulate_runs}. *)

val simulate_runs_interval :
  units:int ->
  budget:int ->
  policy:policy ->
  (int * int * int) array ->
  sim * int
(** {!simulate_runs} plus the pass's interval end [hi]: the least
    [occupancy + bytes] over the eviction tests that evicted, and the
    least [bytes] over the bypassed units ([max_int] if neither
    happened). Every budget in [\[budget, hi)] has the same sim
    (property-tested). *)

val simulate_runs_ladder :
  units:int ->
  policy:policy ->
  budgets:int list ->
  (int * int * int) array ->
  sim list
(** {!simulate_many}'s per-(policy, block) ladder code over a
    synthetic run stream; equals [List.map (fun b -> simulate_runs
    ~units ~budget:b ~policy runs) budgets] for budgets in any order,
    duplicates included (property-tested). *)

val mrc : loaded -> Observe.Reuse.t
(** Rebuild the exact byte-LRU reuse tracker by feeding it the
    reference stream's runs — identical (same predicted curve, same measured-miss
    cross-check) to the tracker an observed execution accumulates. *)

(** {2 Full metrics replay} *)

val replay_metrics :
  ?through:(Msp430.Trace.sink -> Msp430.Trace.sink) ->
  ?window:int ->
  ?buckets:int ->
  string ->
  (Observe.Metrics.t * Trace_file.header, error) result
(** Stream the whole file through a fresh {!Observe.Metrics} sampler:
    the decoder drives {!Observe.Metrics.sink}, the sink a live run
    feeds, with the recorded hook answers, and hands it each templated
    instruction whole. With the executed run's window/bucket
    spec (defaults: 65536-cycle windows, 48 buckets) the replayed
    CSV / series / MRC renderings are byte-identical to the executed
    ones. A recorded frequency other than 8 or 24 MHz is a
    [Model_error], found from the header before any event is
    decoded. [through] (default [Fun.id]) wraps the sampler's sink, as
    in {!load_through}. *)
