(** Build-and-run harness covering every configuration in the paper's
    evaluation: memory placement (Fig. 1), caching system, clock
    frequency, and the split-SRAM arrangement of §5.5. Data is packed
    directly after code when both share a memory, the stack sits at
    the top of whichever memory holds program data, and binaries that
    exceed the FR2355's memories come back as [Did_not_fit] (the
    paper's DNF marks). *)

type caching =
  | Baseline  (** execute from FRAM through the hardware read cache *)
  | Swapram_cache of Swapram.Config.options
  | Block_cache of Blockcache.Config.options
  | Checkpoint_runtime of Swapram.Checkpoint.options
      (** periodic whole-state snapshots to FRAM instead of caching.
          Always built with the {!Standard} placement (data + stack
          in SRAM, so a restored snapshot is the complete machine
          state) regardless of the configured placement
          ({!built_placement}), with the code limit lowered to the
          snapshot arena. *)

val caching_name : caching -> string

val systems : caching list
(** The name table: every system once, with default options. *)

val caching_of_name : string -> caching option
(** The system in {!systems} that {!caching_name} calls [name]. *)

val replay_systems : caching list
(** The code caches whose recordings the replay models simulate
    (SwapRAM and the block cache, default options): the DSE's and the
    bench report's system axis. *)

type placement =
  | Unified  (** code + data in FRAM; SRAM free for the cache *)
  | Standard  (** code in FRAM, data in SRAM — the conventional setup *)
  | Code_sram  (** code in SRAM, data in FRAM (Fig. 1 study) *)
  | All_sram  (** both in SRAM (Fig. 1 study) *)
  | Split  (** §5.5: data + stack in low SRAM, rest of SRAM is cache *)

val placement_name : placement -> string
(** The name reports and trace headers carry. *)

val placements : placement list

val placement_key : placement -> string
(** The [--placement] spelling: unified, standard, code-sram, all-sram
    or split. *)

val placement_of_name : string -> placement option
(** The inverse of {!placement_name}. *)

type config = {
  benchmark : Workloads.Bench_def.t;
  seed : int;
  frequency : Msp430.Platform.frequency;
  placement : placement;
  caching : caching;
  fuel : int;
  through_disasm : bool;
      (** route the support library through the §4 disassembler
          workflow *)
  engine : Msp430.Cpu.engine;
      (** host-simulator execution engine ({!Msp430.Cpu.Superblock} by
          default). Either engine produces identical simulated results
          — cycles, energy, UART output, runtime counters — so this
          only affects host wall-clock time. *)
}

val default_config : Workloads.Bench_def.t -> config
(** Unified placement, baseline caching, 24 MHz, seed 1, and the
    {!Msp430.Cpu.Superblock} engine. *)

val built_placement : config -> placement
(** The placement the configuration is built with: {!Standard} for
    {!Checkpoint_runtime}, the configured one otherwise. Run labels,
    trace headers and {!config_fingerprint} all name this one. *)

type sizes = { code_bytes : int; data_bytes : int }

(** {2 Observability}

    Passing [~observe] to {!prepare} / {!run} attaches the {!Observe}
    stack to the system before it boots: a {!Observe.Profiler} (with
    dynamic symbol resolvers for whichever caching runtime is
    installed), a bounded {!Observe.Events} ring for the Chrome trace
    exporter and an optional {!Observe.Metrics} sampler,
    teed into one {!Msp430.Trace.sink}. When a caching runtime is
    installed, one enrichment adapter wraps that sink and fills in
    the runtime-hook answers (a call's cached unit, an instruction
    fetch's NVM home) once per event. Observation is pure spectating
    — an observed run is cycle-for-cycle identical to an unobserved
    one. *)

type observe_spec = {
  metrics_window : int;
      (** window length (total cycles) for the {!Observe.Metrics}
          time-series sampler; 0 disables it *)
  metrics_buckets : int;  (** address-histogram buckets per region *)
}

val default_observe : observe_spec
(** No metrics sampler. *)

val metrics_observe : observe_spec
(** [default_observe] plus the metrics sampler at 65536-cycle windows.
    The sampler's reuse tracking follows the installed runtime:
    function-granular for SwapRAM (against its configured cache size),
    slot-granular lines for the block cache, nominal 64-byte lines for
    the baseline. *)

type observation = {
  o_symtab : Observe.Symtab.t;
  o_profiler : Observe.Profiler.t;
  o_events : Observe.Events.t;  (** the 4096 most recent events *)
  o_metrics : Observe.Metrics.t option;
  o_sink : Msp430.Trace.sink;
      (** the consumers above, teed into one sink; {!prepare} installs
          it behind the runtime's enrichment adapter *)
}

type result = {
  stats : Msp430.Trace.t;
  energy : Msp430.Energy.report;
  uart : string;
  return_value : int;
  sizes : sizes;
  swapram_stats : Swapram.Runtime.stats option;
  swapram_manifest : Swapram.Instrument.manifest option;
  swapram_usage : Swapram.Pipeline.nvm_usage option;
  block_stats : Blockcache.Runtime.stats option;
  block_usage : Blockcache.Pipeline.nvm_usage option;
  checkpoint_stats : Swapram.Checkpoint.stats option;
  observation : observation option;
      (** present iff the run was prepared with [~observe] *)
}

type outcome =
  | Completed of result  (** ran to a clean halt *)
  | Crashed of Msp430.Cpu.run_outcome
      (** the simulated run ended in something other than a clean
          halt: out of fuel, a machine fault, or an (uninjected)
          power loss *)
  | Did_not_fit of string

val run : ?observe:observe_spec -> config -> outcome

(** {2 Trace recording (replay subsystem)} *)

val config_fingerprint : config -> int
(** FNV-1a fingerprint of everything in the configuration that can
    change simulated results (the engine and observation are
    excluded — both are result-neutral). Recorded into trace-file
    headers; {!Replay_sweep} and [replay --check] use it to reject
    stale traces. Stable across hosts and OCaml versions. *)

val config_of_header :
  find:(string -> Workloads.Bench_def.t option) ->
  Replay.Trace_file.header ->
  (config, string) Stdlib.result
(** The inverse of the header {!run_recorded} writes: the configuration
    it names, with the benchmark from [find] and default options.
    [Error] for a name outside the tables, and for a header whose
    fingerprint differs from the rebuilt configuration's (a recording
    under non-default options). *)

val run_recorded : ?observe:observe_spec -> trace:string -> config -> outcome
(** [run] plus the {!Replay.Trace_file} writer as one more sink, teed
    after any [?observe] sinks behind the same enrichment adapter:
    every counted event of the run lands in [trace] with the
    runtime-hook answers a replay needs. The configured engine runs
    it: both engines emit the same event stream, so the file is
    byte-identical under either, and the returned result equals an
    observed run's. The trace file is completed only on [Completed];
    otherwise it is removed. [prepare] + {!record_prepared}. *)

(** {2 Staged execution}

    [run] is [prepare] + [boot] + a full-length [Cpu.run] + [collect].
    The fault-injection subsystem ({!Faultinject}) drives the stages
    itself so it can interleave bounded runs with power failures and
    reboots. *)

type prepared = {
  p_config : config;
  p_system : Msp430.Platform.system;
  p_image : Masm.Assembler.t;
  p_stack_top : int;
  p_swapram : Swapram.Runtime.t option;
  p_block : Blockcache.Runtime.t option;
  p_checkpoint : Swapram.Checkpoint.t option;
  p_sr_manifest : Swapram.Instrument.manifest option;
  p_sr_usage : Swapram.Pipeline.nvm_usage option;
  p_bb_usage : Blockcache.Pipeline.nvm_usage option;
  p_observation : observation option;
}

val prepare : ?observe:observe_spec -> config -> (prepared, string) Stdlib.result
(** Build, load and arm a system without starting it; [Error] is the
    did-not-fit message. *)

val boot : prepared -> unit
(** Load SP and PC with the stack top and entry point. *)

val reboot : prepared -> unit
(** Replay the boot path after a power failure: restore whichever
    runtime is installed (counted FRAM accesses — an armed power
    trigger can interrupt them with [Memory.Power_loss]) and reload
    SP/PC — except when the checkpoint runtime resumed from a
    snapshot, which carries its own PC/SP. Apply
    {!Msp430.Platform.power_fail} first. *)

val collect : prepared -> result
(** Gather statistics from the system as it stands. *)

val record_prepared : trace:string -> prepared -> outcome
(** The recording stage of {!run_recorded} on a [prepare]d, unbooted
    system: attach the writer, [boot], run to the configured fuel,
    [collect]. The caller can read the CPU's engine counters after. *)

(** {2 Profile-guided placement} *)

type pgo_result = {
  pg_profile : Swapram.Pgo.profile;
  pg_placement : Swapram.Pgo.placement;
  pg_train : result;
      (** the training run: default placement, profiler attached *)
  pg_measured : outcome;
      (** the rebuilt run with the placement applied, observed per
          the caller's [?observe] *)
}

val train_pgo :
  config -> (Swapram.Pgo.profile * result, string) Stdlib.result
(** The training half of {!run_pgo}: run the SwapRAM configuration
    with no PGO placement and the profiler attached, and assemble the
    per-function profile (code sizes from the manifest, dynamic counts
    from the profiler; calls that missed symbolize under the trap
    vector, so a function's call count is its resolved calls plus its
    miss-handler exits). [Error] for non-swapram configurations and
    runs that do not complete. *)

val run_pgo :
  ?observe:observe_spec ->
  ?budget:int ->
  ?profile:Swapram.Pgo.profile ->
  ?train:outcome ->
  config ->
  (pgo_result, string) Stdlib.result
(** Two-phase profile-guided run: train ({!train_pgo}), compute a
    {!Swapram.Pgo.placement} (or place a caller-supplied [?profile],
    e.g. one reloaded from disk), rebuild with it and measure. [train]
    is a run of [config] the caller already has, made with no PGO
    placement and any [~observe] spec (each attaches the profiler):
    the profile is assembled from it as {!train_pgo} does, and the
    training run is skipped. [Error] for non-swapram configurations,
    failed or unobserved training runs, or a measured run whose UART
    output / return value diverges from training. *)
