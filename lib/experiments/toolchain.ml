module Platform = Msp430.Platform
module Cpu = Msp430.Cpu
module Memory = Msp430.Memory
module Trace = Msp430.Trace
module Energy = Msp430.Energy

(* Build-and-run harness covering every configuration in the paper's
   evaluation: memory placement (Fig. 1), caching system (baseline
   hardware cache / SwapRAM / block cache), clock frequency, and the
   split-SRAM arrangement of §5.5. Data is packed directly after code
   when both live in the same memory (two-phase assembly), the stack
   sits at the top of whichever memory holds program data, and
   binaries that exceed the FR2355's memories are reported DNF as in
   the paper's Fig. 7. *)

type caching =
  | Baseline
  | Swapram_cache of Swapram.Config.options
  | Block_cache of Blockcache.Config.options
  | Checkpoint_runtime of Swapram.Checkpoint.options
      (* periodic whole-state snapshots to FRAM instead of caching;
         always built with the Standard placement (data + stack in
         SRAM) so a restored snapshot is the complete machine state *)

let caching_name = function
  | Baseline -> "baseline"
  | Swapram_cache _ -> "swapram"
  | Block_cache _ -> "block"
  | Checkpoint_runtime _ -> "checkpoint"

(* The one name table: every system with default options, named by
   [caching_name]. *)
let systems =
  [
    Baseline;
    Swapram_cache Swapram.Config.default_options;
    Block_cache Blockcache.Config.default_options;
    Checkpoint_runtime Swapram.Checkpoint.default_options;
  ]

let caching_of_name name =
  List.find_opt (fun c -> caching_name c = name) systems

let replay_systems =
  List.filter
    (function Swapram_cache _ | Block_cache _ -> true | _ -> false)
    systems

type placement =
  | Unified (* code + data in FRAM; SRAM free (for the cache) *)
  | Standard (* code in FRAM, data in SRAM — the conventional setup *)
  | Code_sram (* code in SRAM, data in FRAM (Fig. 1 study) *)
  | All_sram (* both in SRAM (Fig. 1 study) *)
  | Split (* §5.5: data + stack in low SRAM, rest of SRAM is cache *)

let placement_name = function
  | Unified -> "code+data FRAM"
  | Standard -> "code FRAM, data SRAM"
  | Code_sram -> "code SRAM, data FRAM"
  | All_sram -> "code+data SRAM"
  | Split -> "split SRAM"

let placements = [ Unified; Standard; Code_sram; All_sram; Split ]

let placement_key = function
  | Unified -> "unified"
  | Standard -> "standard"
  | Code_sram -> "code-sram"
  | All_sram -> "all-sram"
  | Split -> "split"

let placement_of_name name =
  List.find_opt (fun p -> placement_name p = name) placements

type config = {
  benchmark : Workloads.Bench_def.t;
  seed : int;
  frequency : Platform.frequency;
  placement : placement;
  caching : caching;
  fuel : int;
  through_disasm : bool; (* route the support library through the
                            disassembler workflow of §4 *)
  engine : Cpu.engine; (* host-simulator execution engine; either
                          engine yields identical simulated results *)
}

let default_config benchmark =
  {
    benchmark;
    seed = 1;
    frequency = Platform.Mhz24;
    placement = Unified;
    caching = Baseline;
    fuel = 2_000_000_000;
    through_disasm = false;
    engine = Cpu.Superblock;
  }

let stack_reserve = 384

type sizes = { code_bytes : int; data_bytes : int }

(* --- Observability ----------------------------------------------------- *)

(* What to attach to the run. The profiler and the 4096-entry event
   ring are always on when a spec is given; the windowed metrics
   sampler is optional because most callers only want the attribution
   tables. *)
type observe_spec = {
  metrics_window : int; (* 0 disables the time-series sampler *)
  metrics_buckets : int;
}

let events_capacity = 4096
let default_observe = { metrics_window = 0; metrics_buckets = 48 }

let metrics_observe = { default_observe with metrics_window = 65536 }

(* Runtime-specific cache-unit context, shared by the metrics sampler
   and the replay recorder: what the installed runtime caches (its
   reuse granule), its configured capacity and — for the function
   granule — the fid -> size table snapshotted through the same
   function the sampler uses, so a replayed run answers size queries
   identically. The runtime answers each event's unit itself, through
   the hooks its [install] set on the trace. *)
type unit_context = {
  uc_reuse : Observe.Metrics.reuse_mode;
  uc_budget : int;
  uc_fid_size : int -> int;
  uc_sizes : int array; (* Functions granule only; [||] otherwise *)
}

let no_unit_context =
  {
    uc_reuse = Observe.Metrics.Lines 64;
    uc_budget = 0;
    uc_fid_size = (fun _ -> 0);
    uc_sizes = [||];
  }

let unit_context ~swapram ~block =
  match (swapram, block) with
  | Some (rt, (manifest : Swapram.Instrument.manifest)), _ ->
      let nfuncs = Array.length manifest.Swapram.Instrument.funcs in
      let fid_size fid =
        if fid < 0 || fid >= nfuncs then 0
        else
          (* Uncounted host-side peek of the FRAM function table:
             entry layout is 8 bytes, size word at offset 2. *)
          Memory.peek_word rt.Swapram.Runtime.mem
            (rt.Swapram.Runtime.addrs.Swapram.Runtime.a_functab
            + (8 * fid) + 2)
      in
      {
        uc_reuse = Observe.Metrics.Functions;
        uc_budget = rt.Swapram.Runtime.options.Swapram.Config.cache_size;
        uc_fid_size = fid_size;
        uc_sizes = Array.init nfuncs fid_size;
      }
  | None, Some rt ->
      {
        no_unit_context with
        uc_reuse = Observe.Metrics.Lines (Blockcache.Runtime.slot_bytes rt);
        uc_budget = Blockcache.Runtime.cache_bytes rt;
      }
  | None, None -> no_unit_context

type observation = {
  o_symtab : Observe.Symtab.t;
  o_profiler : Observe.Profiler.t;
  o_events : Observe.Events.t;
  o_metrics : Observe.Metrics.t option;
  o_sink : Trace.sink; (* the consumers' fan-out *)
}

(* Build the observability stack for a prepared system: the symbol
   table from the link map, dynamic resolvers for whichever caching
   runtime is installed (so pc values inside SRAM cache copies resolve
   to stable function names), and one sink fanning the event stream
   out to the profiler, the optional event ring and the optional
   metrics sampler. [prepare] installs it.

   Everything here is host-side spectating — the sinks run after the
   simulator's counters update and issue no counted accesses, so an
   observed run is cycle-for-cycle identical to an unobserved one
   (asserted by `swapram_cli profile --verify` and the property
   tests). *)
let observation spec uc ~image ~(system : Platform.system) ~swapram ~block =
  let symtab = Observe.Symtab.of_image image in
  (match swapram with
  | Some (rt, (manifest : Swapram.Instrument.manifest)) ->
      Observe.Symtab.add_resolver symtab (fun addr ->
          match Swapram.Runtime.cached_function_at rt addr with
          | Some fid when fid < Array.length manifest.Swapram.Instrument.funcs
            ->
              Some
                manifest.Swapram.Instrument.funcs.(fid)
                  .Swapram.Instrument.fm_name
          | Some _ | None -> None)
  | None -> ());
  (match block with
  | Some rt ->
      Observe.Symtab.add_resolver symtab (fun addr ->
          match Blockcache.Runtime.cached_block_at rt addr with
          | Some nvm -> Observe.Symtab.static_name_of symtab nvm
          | None -> None)
  | None -> ());
  let stats = Memory.stats system.Platform.memory in
  let profiler = Observe.Profiler.create symtab in
  let events = Observe.Events.create ~capacity:events_capacity stats in
  let metrics =
    if spec.metrics_window <= 0 then None
    else
      (* The cache unit is what the installed runtime actually caches
         (whole functions for SwapRAM, fixed slots for the block
         cache, a nominal 64-byte line for the uncached baseline), so
         the predicted miss-ratio curve is directly comparable to the
         runtime's measured miss rate. *)
      Some
        (Observe.Metrics.create
           {
             Observe.Metrics.window_cycles = spec.metrics_window;
             buckets = spec.metrics_buckets;
             reuse = uc.uc_reuse;
             config_budget = uc.uc_budget;
           }
           ~params:(Platform.energy_params system.Platform.frequency)
           ~fram:(Platform.fram_base, Platform.fram_base + Platform.fram_size)
           ~sram:(Platform.sram_base, Platform.sram_base + Platform.sram_size)
           ~fid_size:uc.uc_fid_size)
  in
  {
    o_symtab = symtab;
    o_profiler = profiler;
    o_events = events;
    o_metrics = metrics;
    o_sink =
      List.fold_left Trace.tee
        (Observe.Profiler.sink profiler)
        (Observe.Events.sink events
        :: Option.to_list (Option.map Observe.Metrics.sink metrics));
  }

type result = {
  stats : Trace.t;
  energy : Energy.report;
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
}

type outcome =
  | Completed of result
  | Crashed of Cpu.run_outcome (* ended in anything but a clean halt *)
  | Did_not_fit of string

exception Fit_error of string

let fram_end = Platform.fram_base + Platform.fram_size
let sram_end = Platform.sram_base + Platform.sram_size
let code_base_fram = Platform.fram_base + 0x400

(* (code_base, code_limit, data_base option [None = packed after code],
   data_limit, stack_top) *)
let region_plan placement =
  match placement with
  | Unified ->
      (code_base_fram, fram_end, None, fram_end - stack_reserve, fram_end)
  | Standard ->
      ( code_base_fram,
        fram_end,
        Some Platform.sram_base,
        sram_end - stack_reserve,
        sram_end )
  | Code_sram ->
      ( Platform.sram_base,
        sram_end,
        Some code_base_fram,
        fram_end - stack_reserve,
        fram_end )
  | All_sram ->
      (Platform.sram_base, sram_end, None, sram_end - stack_reserve, sram_end)
  | Split ->
      (* stack_top recomputed once the data size is known *)
      (code_base_fram, fram_end, Some Platform.sram_base, sram_end, 0)

let check_fit ~what ~code_limit ~data_limit image =
  if image.Masm.Assembler.code_end > code_limit then
    raise
      (Fit_error
         (Printf.sprintf "%s: code ends at 0x%04X (limit 0x%04X)" what
            image.Masm.Assembler.code_end code_limit));
  if image.Masm.Assembler.data_end > data_limit then
    raise
      (Fit_error
         (Printf.sprintf "%s: data ends at 0x%04X (limit 0x%04X)" what
            image.Masm.Assembler.data_end data_limit))

(* A built, loaded and armed system that has not started executing.
   [run] drives it to completion in one shot; the fault-injection
   subsystem instead interleaves bounded runs with power failures and
   reboots, which is why build/boot/collect are exposed separately. *)
type prepared = {
  p_config : config;
  p_system : Platform.system;
  p_image : Masm.Assembler.t;
  p_stack_top : int;
  p_swapram : Swapram.Runtime.t option;
  p_block : Blockcache.Runtime.t option;
  p_checkpoint : Swapram.Checkpoint.t option;
  p_sr_manifest : Swapram.Instrument.manifest option;
  p_sr_usage : Swapram.Pipeline.nvm_usage option;
  p_bb_usage : Blockcache.Pipeline.nvm_usage option;
  p_unit_context : unit_context;
  p_observation : observation option;
}

(* The checkpoint runtime requires every application data item to be
   volatile (snapshot-covered), so it is always built with the Standard
   placement. *)
let built_placement config =
  match config.caching with
  | Checkpoint_runtime _ -> Standard
  | Baseline | Swapram_cache _ | Block_cache _ -> config.placement

let prepare ?observe config =
  let placement = built_placement config in
  let code_base, code_limit, data_base, data_limit, stack_top =
    region_plan placement
  in
  (* The checkpoint runtime reserves its FRAM arena by lowering the
     code limit. *)
  let code_limit =
    match config.caching with
    | Checkpoint_runtime _ -> min code_limit Swapram.Checkpoint.arena_base
    | Baseline | Swapram_cache _ | Block_cache _ -> code_limit
  in
  let source = config.benchmark.Workloads.Bench_def.source config.seed in
  let program =
    Minic.Driver.program_of_source ~through_disasm:config.through_disasm source
  in
  (* Split: SRAM = [data][stack][code cache]; SP sits between *)
  let stack_top, cache_region =
    match placement with
    | Split ->
        let data_size = Masm.Assembler.data_section_size program in
        let top = (Platform.sram_base + data_size + stack_reserve + 1) land lnot 1 in
        (top, Some (top, sram_end - top))
    | Unified | Standard | Code_sram | All_sram -> (stack_top, None)
  in
  let caching =
    match (config.caching, cache_region) with
    | Swapram_cache o, Some (base, size) ->
        Swapram_cache { o with Swapram.Config.cache_base = base; cache_size = size }
    | Block_cache o, Some (base, size) ->
        Block_cache { o with Blockcache.Config.cache_base = base; cache_size = size }
    | c, _ -> c
  in
  let layout = { Masm.Assembler.code_base; data_base } in
  let build () =
    match caching with
    | Baseline ->
        let image = Masm.Assembler.assemble ~layout program in
        check_fit ~what:"baseline" ~code_limit ~data_limit image;
        ( image,
          (fun system ->
            Masm.Assembler.load image system.Platform.memory;
            (None, None, None)),
          None,
          None,
          None )
    | Swapram_cache options ->
        let built = Swapram.Pipeline.build ~options ~layout program in
        let image = built.Swapram.Pipeline.image in
        check_fit ~what:"swapram" ~code_limit ~data_limit image;
        ( image,
          (fun system ->
            (Some (Swapram.Pipeline.install built system), None, None)),
          Some built.Swapram.Pipeline.manifest,
          Some (Swapram.Pipeline.nvm_usage built),
          None )
    | Block_cache options ->
        let built = Blockcache.Pipeline.build ~options ~layout program in
        let image = built.Blockcache.Pipeline.image in
        check_fit ~what:"block cache" ~code_limit ~data_limit image;
        ( image,
          (fun system ->
            (None, Some (Blockcache.Pipeline.install built system), None)),
          None,
          None,
          Some (Blockcache.Pipeline.nvm_usage built) )
    | Checkpoint_runtime options ->
        (* built exactly like the baseline — no code transformation;
           the runtime lives entirely in the reserved arena *)
        let image = Masm.Assembler.assemble ~layout program in
        check_fit ~what:"checkpoint" ~code_limit ~data_limit image;
        ( image,
          (fun system ->
            Masm.Assembler.load image system.Platform.memory;
            (None, None, Some (Swapram.Checkpoint.install ~options system))),
          None,
          None,
          None )
  in
  match build () with
  | exception Fit_error msg -> Error msg
  | image, install, sr_manifest, sr_usage, bb_usage ->
      let system = Platform.create config.frequency in
      Cpu.set_engine system.Platform.cpu config.engine;
      let sr_rt, bb_rt, ck_rt = install system in
      let swapram =
        match (sr_rt, sr_manifest) with
        | Some rt, Some m -> Some (rt, m)
        | _ -> None
      in
      let uc = unit_context ~swapram ~block:bb_rt in
      let observation =
        Option.map
          (fun spec ->
            let o = observation spec uc ~image ~system ~swapram ~block:bb_rt in
            Trace.set_sink (Memory.stats system.Platform.memory) (Some o.o_sink);
            o)
          observe
      in
      Ok
        {
          p_config = config;
          p_system = system;
          p_image = image;
          p_stack_top = stack_top;
          p_swapram = sr_rt;
          p_block = bb_rt;
          p_checkpoint = ck_rt;
          p_sr_manifest = sr_manifest;
          p_sr_usage = sr_usage;
          p_bb_usage = bb_usage;
          p_unit_context = uc;
          p_observation = observation;
        }

(* Only an observed run's consumers see the markers; a bare recording
   does not carry them. *)
let phase_marker p name =
  match (p.p_observation, (Memory.stats p.p_system.Platform.memory).Trace.sink) with
  | Some _, Some s -> s.Trace.runtime (Trace.Phase { name })
  | _ -> ()

let boot_regs p =
  Cpu.set_reg p.p_system.Platform.cpu Msp430.Isa.sp p.p_stack_top;
  Cpu.set_reg p.p_system.Platform.cpu Msp430.Isa.pc
    (Masm.Assembler.lookup p.p_image Minic.Driver.entry_name)

let boot p =
  phase_marker p "boot";
  boot_regs p

(* Replay the boot path after a power failure: restore whichever
   caching runtime is installed (counted FRAM writes — an armed power
   trigger can interrupt them with Memory.Power_loss) and reload
   SP/PC. The caller applies Platform.power_fail first. *)
let reboot p =
  phase_marker p "reboot";
  match p.p_checkpoint with
  | Some rt -> (
      (* a restored snapshot carries its own PC/SP — only a cold
         restart reloads the entry vector *)
      match Swapram.Checkpoint.reboot rt ~image:p.p_image with
      | Swapram.Checkpoint.Resumed -> ()
      | Swapram.Checkpoint.Restarted -> boot_regs p)
  | None ->
      (match p.p_swapram with
      | Some rt -> Swapram.Runtime.reboot rt ~image:p.p_image
      | None -> ());
      (match p.p_block with
      | Some rt -> Blockcache.Runtime.reboot rt ~image:p.p_image
      | None -> ());
      boot_regs p

let collect p =
  let system = p.p_system in
  {
    stats = Trace.snapshot (Cpu.stats system.Platform.cpu);
    energy = Platform.report system;
    uart = Memory.uart_output system.Platform.memory;
    return_value = Cpu.reg system.Platform.cpu 12;
    sizes =
      {
        code_bytes = Masm.Assembler.code_size p.p_image;
        (* the runtimes keep their tables in the text section, so the
           data section is the program's own *)
        data_bytes = Masm.Assembler.data_size p.p_image;
      };
    swapram_stats = Option.map Swapram.Runtime.stats p.p_swapram;
    swapram_manifest = p.p_sr_manifest;
    swapram_usage = p.p_sr_usage;
    block_stats = Option.map Blockcache.Runtime.stats p.p_block;
    block_usage = p.p_bb_usage;
    checkpoint_stats = Option.map Swapram.Checkpoint.stats p.p_checkpoint;
    observation = p.p_observation;
  }

(* Telemetry phase boundaries: [span] tags build/execute/collect with
   the cell's identity, so a host-side timeline attributes simulator
   time to (benchmark, system) pairs. Pure spectating — a disabled
   sink reduces every [span] call to its thunk. *)
let phase_span config name f =
  Observe.Telemetry.with_span ~cat:"toolchain" name
    ~args:
      [
        ( "benchmark",
          Observe.Json.String config.benchmark.Workloads.Bench_def.name );
        ("system", Observe.Json.String (caching_name config.caching));
      ]
    f

let run ?observe config =
  match phase_span config "prepare" (fun () -> prepare ?observe config) with
  | Error msg -> Did_not_fit msg
  | Ok p -> (
      boot p;
      match
        phase_span config "execute" (fun () ->
            Cpu.run ~fuel:config.fuel p.p_system.Platform.cpu)
      with
      | Cpu.Halted ->
          Completed (phase_span config "collect" (fun () -> collect p))
      | (Cpu.Fuel_exhausted | Cpu.Faulted _ | Cpu.Power_lost) as o -> Crashed o)

(* --- Trace recording (replay subsystem) -------------------------------- *)

(* Canonical rendering of everything in a configuration that can
   change simulated results. The engine is deliberately excluded
   (either engine yields identical simulated values), as is the
   observation spec (pure spectating). *)
let config_canonical config =
  let buf = Buffer.create 160 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "benchmark=%s;seed=%d;freq=%s;placement=%s;fuel=%d;disasm=%b;"
    config.benchmark.Workloads.Bench_def.name config.seed
    (Platform.frequency_name config.frequency)
    (placement_name (built_placement config))
    config.fuel config.through_disasm;
  (match config.caching with
  | Baseline -> add "caching=baseline"
  | Swapram_cache o ->
      add "caching=swapram;base=%d;size=%d;policy=%s;debug=%b;prefetch=%d;"
        o.Swapram.Config.cache_base o.Swapram.Config.cache_size
        (Swapram.Cache.policy_name o.Swapram.Config.policy)
        o.Swapram.Config.debug_checks o.Swapram.Config.prefetch;
      add "blacklist=%s;" (String.concat "," o.Swapram.Config.blacklist);
      (match o.Swapram.Config.freeze with
      | None -> add "freeze=none;"
      | Some (threshold, window) -> add "freeze=%d/%d;" threshold window);
      (match o.Swapram.Config.pgo with
      | None -> add "pgo=none"
      | Some p ->
          add "pgo=pinned[%s]hot[%s]fram[%s]budget=%d"
            (String.concat "," p.Swapram.Pgo.pl_pinned)
            (String.concat "," p.Swapram.Pgo.pl_hot_order)
            (String.concat "," p.Swapram.Pgo.pl_fram_resident)
            p.Swapram.Pgo.pl_budget)
  | Block_cache o ->
      add "caching=block;base=%d;size=%d;maxblock=%d;debug=%b"
        o.Blockcache.Config.cache_base o.Blockcache.Config.cache_size
        o.Blockcache.Config.max_block_bytes o.Blockcache.Config.debug_checks
  | Checkpoint_runtime o ->
      add "caching=checkpoint;interval=%d" o.Swapram.Checkpoint.interval);
  Buffer.contents buf

(* FNV-1a over the canonical string, folded to a nonnegative 62-bit
   int so it round-trips through the JSON emitter's Int. Stable
   across hosts and OCaml versions — it keys memo entries and golden
   trace files. *)
let config_fingerprint config =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun ch ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code ch)))
          0x100000001b3L)
    (config_canonical config);
  Int64.to_int (Int64.logand !h 0x3FFF_FFFF_FFFF_FFFFL)

let recording_header uc config =
  {
    Replay.Trace_file.benchmark = config.benchmark.Workloads.Bench_def.name;
    seed = config.seed;
    frequency_mhz = Platform.mhz config.frequency;
    wait_states = Platform.wait_states config.frequency;
    contention_penalty = Memory.contention_penalty;
    system = caching_name config.caching;
    placement = placement_name (built_placement config);
    budget = uc.uc_budget;
    granularity =
      (match uc.uc_reuse with
      | Observe.Metrics.Functions -> Replay.Trace_file.Functions uc.uc_sizes
      | Observe.Metrics.Lines n -> Replay.Trace_file.Lines n
      | Observe.Metrics.No_reuse -> Replay.Trace_file.Lines 64);
    fingerprint = config_fingerprint config;
  }

(* The inverse of [recording_header]: rebuild the configuration its
   names describe, with default options, and refuse (via the
   fingerprint) a recording that used anything the names don't
   capture. *)
let config_of_header ~find (h : Replay.Trace_file.header) =
  let ( let* ) = Result.bind in
  let named what lookup name =
    Option.to_result
      ~none:(Printf.sprintf "unknown %s %s" what name)
      (lookup name)
  in
  let* benchmark = named "benchmark" find h.benchmark in
  let* caching = named "system" caching_of_name h.system in
  let* placement = named "placement" placement_of_name h.placement in
  let* frequency =
    Option.to_result
      ~none:(Printf.sprintf "unsupported frequency %d MHz" h.frequency_mhz)
      (Platform.frequency_of_mhz h.frequency_mhz)
  in
  let config =
    {
      (default_config benchmark) with
      seed = h.seed;
      frequency;
      placement;
      caching;
    }
  in
  if config_fingerprint config = h.fingerprint then Ok config
  else
    Error
      "trace was recorded under non-default options; its configuration \
       cannot be reconstructed from the header names"

(* Record a prepared, unbooted system into [trace]: install the writer
   next to the observation's sinks (any ?observe stack attached at
   [prepare]), then boot and run on the configured engine. Both
   engines emit the same event stream, so the file is the same bytes
   under either, and a recorded run's results equal an unobserved
   one's. The file is completed only on a clean halt; crashed runs
   leave no trace file behind. *)
let record_prepared ~trace p =
  let config = p.p_config in
  let w =
    Replay.Trace_file.create_writer trace (recording_header p.p_unit_context config)
  in
  let writer = Replay.Trace_file.sink w in
  Trace.set_sink
    (Memory.stats p.p_system.Platform.memory)
    (Some
       (match p.p_observation with
       | Some o -> Trace.tee o.o_sink writer
       | None -> writer));
  boot p;
  match Cpu.run ~fuel:config.fuel p.p_system.Platform.cpu with
  | Cpu.Halted ->
      Replay.Trace_file.close_writer w;
      Completed (collect p)
  | (Cpu.Fuel_exhausted | Cpu.Faulted _ | Cpu.Power_lost) as o ->
      Replay.Trace_file.discard_writer w;
      Crashed o

let run_recorded ?observe ~trace config =
  phase_span config "record" @@ fun () ->
  match prepare ?observe config with
  | Error msg -> Did_not_fit msg
  | Ok p -> record_prepared ~trace p

(* --- Profile-guided placement (train -> place -> rebuild -> measure) -- *)

(* Per-function training profile out of a completed observed run: the
   manifest carries names/fids/code sizes, the profiler the dynamic
   counts. Calls that missed trapped to the handler vector (the
   redirection entry held the trap address), so they symbolized under
   the trap's name — a function's true call count is its resolved
   calls plus its miss-handler exits. *)
let profile_of_training ~benchmark ~cache_size
    (manifest : Swapram.Instrument.manifest) profiler =
  let funcs =
    Array.to_list manifest.Swapram.Instrument.funcs
    |> List.map (fun (fm : Swapram.Instrument.func_meta) ->
           let name = fm.Swapram.Instrument.fm_name in
           let misses =
             Observe.Profiler.miss_exits_of profiler fm.Swapram.Instrument.fid
           in
           let calls = Observe.Profiler.calls_to profiler name + misses in
           let instrs, cycles =
             match Observe.Profiler.counters_of profiler name with
             | Some c ->
                 (c.Observe.Profiler.instrs, Observe.Profiler.cycles_of c)
             | None -> (0, 0)
           in
           {
             Swapram.Pgo.fp_name = name;
             fp_size = fm.Swapram.Instrument.fm_size;
             fp_calls = calls;
             fp_misses = misses;
             fp_instrs = instrs;
             fp_cycles = cycles;
           })
  in
  {
    Swapram.Pgo.pr_benchmark = benchmark;
    pr_cache_size = cache_size;
    pr_funcs = funcs;
  }

type pgo_result = {
  pg_profile : Swapram.Pgo.profile;
  pg_placement : Swapram.Pgo.placement;
  pg_train : result; (* the training run (default placement, observed) *)
  pg_measured : outcome; (* the rebuilt run with the placement applied *)
}

(* [config] with its SwapRAM PGO placement replaced by [pgo]. *)
let with_pgo config pgo =
  match config.caching with
  | Swapram_cache o ->
      { config with caching = Swapram_cache { o with Swapram.Config.pgo } }
  | Baseline | Block_cache _ | Checkpoint_runtime _ -> config

(* The second step of training: a completed run of [config] without a
   PGO placement, with any observation attached (the profiler is in
   every one), becomes the per-function profile. *)
let pgo_profile config outcome =
  match (config.caching, outcome) with
  | Swapram_cache o, Completed ({ observation = Some ob; _ } as train) ->
      (* Note: for the Split placement the cache region is recomputed
         inside [prepare]; the knapsack budget uses the configured
         cache_size, which is exact for the Unified placement used
         everywhere PGO results are reported. *)
      Ok
        ( profile_of_training
            ~benchmark:config.benchmark.Workloads.Bench_def.name
            ~cache_size:o.Swapram.Config.cache_size
            (Option.get train.swapram_manifest)
            ob.o_profiler,
          train )
  | Swapram_cache _, Completed { observation = None; _ } ->
      Error "pgo training run carries no profiler"
  | Swapram_cache _, Did_not_fit msg ->
      Error ("pgo training run did not fit: " ^ msg)
  | Swapram_cache _, Crashed c ->
      Error ("pgo training run crashed: " ^ Cpu.outcome_name c)
  | (Baseline | Block_cache _ | Checkpoint_runtime _), _ ->
      Error "pgo requires a swapram configuration"

let train_pgo config =
  match config.caching with
  | Baseline | Block_cache _ | Checkpoint_runtime _ ->
      Error "pgo requires a swapram configuration"
  | Swapram_cache _ ->
      pgo_profile config (run ~observe:default_observe (with_pgo config None))

let run_pgo ?observe ?budget ?profile ?train config =
  phase_span config "pgo" @@ fun () ->
  let training =
    match train with
    | Some outcome -> pgo_profile config outcome
    | None -> train_pgo config
  in
  match training with
  | Error _ as e -> e
  | Ok (trained, train) -> (
      let profile = Option.value profile ~default:trained in
      let placement = Swapram.Pgo.place ?budget profile in
      let measured = run ?observe (with_pgo config (Some placement)) in
      match measured with
      | Completed m
        when m.uart <> train.uart || m.return_value <> train.return_value ->
          Error "pgo: measured run output diverged from training run"
      | Completed _ | Crashed _ | Did_not_fit _ ->
          Ok
            {
              pg_profile = profile;
              pg_placement = placement;
              pg_train = train;
              pg_measured = measured;
            })
