(** Design-space exploration: fan the replay kernel over a grid of
    (workload x SRAM budget x eviction policy x block size x
    frequency) points and compute exact Pareto frontiers over
    (cycles, energy, SRAM footprint, NVM traffic).

    The cache-model simulation is frequency-independent, so one
    {!Replay.Engine.simulate_many} sim per (budget, policy, block)
    fans out into one point per frequency by O(1) arithmetic in the
    parent. Sims are what gets sharded across workers, memoized and
    persisted; objectives and frontiers are always recomputed in the
    parent from the memoized sims, so serial, parallel and resumed
    runs produce byte-identical frontiers by construction. *)

type grid = {
  g_budgets : int list;  (** SRAM capacities in bytes *)
  g_policies : Replay.Engine.policy list;
  g_blocks : int option list;
      (** block-size axis, applied to line-granular (block-cache)
          traces only; [None] is the recorded slot size. Per workload
          the axis is normalized to multiples of the recorded slot and
          deduplicated, so two requested sizes that merge to the same
          factor cost one sim. *)
  g_frequencies : int list;  (** MHz; 8 and 24 are the platform points *)
}

val range : lo:int -> hi:int -> step:int -> int list
(** [lo], [lo + step], ... up to and including [hi]. *)

val default_grid : grid
(** 512 B..16 KiB in 32 B steps x {lru, lfu, cost} x
    {recorded, 256 B, 512 B} x {8, 24} MHz — >= 20k points over the
    full benchmark suite. *)

val validate_grid : grid -> (unit, string) result

(** {2 Workloads} *)

type workload = {
  w_benchmark : string;
  w_system : string;  (** "swapram" or "block" *)
  w_trace : string;  (** recorded trace path *)
  w_fingerprint : int;  (** recording-configuration fingerprint *)
  w_events : int;
  w_line_bytes : int option;  (** [Some slot] for line-granular traces *)
}

val workload_name : workload -> string
(** ["benchmark/system"], the point and frontier label. *)

val record_workloads :
  ?seed:int ->
  ?benchmarks:Workloads.Bench_def.t list ->
  ?systems:Toolchain.caching list ->
  ?frequency:Msp430.Platform.frequency ->
  ?jobs:int ->
  ?progress:Observe.Progress.sink ->
  dir:string ->
  unit ->
  (workload list, string) result
(** Record one trace per (benchmark x system) into [dir], in parallel
    ([systems] defaults to {!Toolchain.replay_systems}).
    A trace already on disk whose header fingerprint matches the
    expected configuration is reused without re-recording, so a
    persistent [dir] makes re-runs recording-free. Pairs whose image
    does not fit the system are skipped; a crash is an [Error]. Each
    trace is decoded once here in the parent ({!Replay.Engine.load_cached}),
    so forked evaluation workers inherit the decoded statistics. *)

val with_trace_dir : ?dir:string -> (string -> 'a) -> 'a
(** [with_trace_dir ?dir f] runs [f] on a trace directory for
    {!record_workloads}: [dir] itself (created if missing, kept
    afterwards), or without [dir] a fresh temporary directory that is
    removed, with every file in it, when [f] returns or raises. *)

(** {2 Points and objectives} *)

type objectives = {
  o_cycles : int;
      (** exact retargeted cycles plus modeled software-cache overhead
          (handler entry/exit per miss; copy-loop plus one wait-stated
          NVM read per copied word — {!Swapram.Costs} constants) *)
  o_energy_nj : float;
      (** platform energy model over [o_cycles] with fill traffic
          added to the NVM-read and SRAM-access counters *)
  o_sram_bytes : int;  (** the provisioned budget (resource axis) *)
  o_nvm_bytes : int;
      (** fill bytes loaded from NVM plus recorded data-write bytes —
          the wear/bandwidth axis of this read-only code cache *)
}

type point = {
  p_workload : string;
  p_budget : int;
  p_policy : string;
  p_block : int;  (** effective block bytes; 0 for function-granular *)
  p_frequency_mhz : int;
  p_obj : objectives;
}

val objectives_of :
  Replay.Engine.loaded ->
  frequency_mhz:int ->
  budget:int ->
  Replay.Engine.sim ->
  objectives
(** The documented first-order objective model (EXPERIMENTS.md,
    "Design-space exploration"). Pure arithmetic over the loaded
    statistics and the sim — deterministic across processes. *)

val dominates : objectives -> objectives -> bool
(** [dominates a b]: [a] is no worse than [b] on every objective and
    strictly better on at least one (all four minimized). *)

val pareto : point list -> point list
(** Exact Pareto frontier: non-dominated points, identical objective
    vectors deduplicated to the canonically-smallest point, output in
    canonical (objective-lex, then point-key) order. A pure function
    of the point {e set} — invariant to input order
    (property-tested). *)

(** {2 Evaluation} *)

type frontier = {
  f_workload : string;
  f_points : int;  (** points evaluated for this workload *)
  f_frontier : point list;
}

type outcome = {
  d_workloads : workload list;
  d_points_total : int;
  d_sims_total : int;
  d_sims_computed : int;  (** sims actually simulated this run *)
  d_sims_cached : int;  (** sims served from the persistent store *)
  d_sims_collapsed : int;
      (** of the computed sims, the LRU models absorbed by
          {!Replay.Engine.simulate_all_budgets}'s single-pass stack
          kernel: those in a (workload, block) ladder of at least two
          budgets. Depends on store warmth, not on [jobs]. *)
  d_frontiers : frontier list;  (** per workload, workload input order *)
  d_global_frontier : point list;
      (** frontier over the union of every workload's points *)
}

val run :
  ?jobs:int ->
  ?progress:Observe.Progress.sink ->
  ?store:string ->
  grid ->
  workload list ->
  (outcome, string) result
(** Evaluate the full grid. Missing sims (not in the [store]) go to
    up to [jobs] forked workers as {!Sim_plan} tasks: one per
    (workload, block) group, all its policy ladders, costliest first.
    [store] names the persistent memo store, an {!Store} (created if
    absent or empty): the sims computed by a run are appended once the
    whole pool map returns, so a run killed earlier keeps only what
    earlier runs stored. A damaged or torn tail is dropped on load. A
    workload whose on-disk trace no longer matches its planned
    fingerprint is an [Error], not a silent recompute. *)

(** {2 JSON} *)

val point_json : point -> Observe.Json.t

val json : ?slim:bool -> grid -> outcome -> Observe.Json.t
(** The ["dse"] report object. Deterministic members (grid,
    per-workload frontiers, global frontier, point/sim counts) are
    identical for serial, parallel and resumed runs; [slim] drops the
    provenance counters ([sims_computed], [sims_cached],
    [sims_collapsed]), which depend on memo-store warmth. The bench
    report embeds the slim rendering. *)
