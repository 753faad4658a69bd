(* Command-line driver: compile a mini-C program (a file or one of the
   bundled benchmarks), build it for a chosen caching system and
   memory placement, run it on the simulated MSP430FR2355 and report
   execution statistics.

   The bench command regenerates the paper's tables and figures
   (DESIGN.md's per-experiment index) and the machine-readable report.

   Examples:
     swapram_cli run --benchmark crc
     swapram_cli run --benchmark aes --system swapram --freq 8
     swapram_cli run --file prog.c --system block --placement standard
     swapram_cli asm --benchmark crc        # dump instrumented assembly
     swapram_cli bench                      # every table and figure
     swapram_cli bench fig1 tab2            # selected artifacts
     swapram_cli bench --jobs=0 --report=bench/report.json
                                            # JSON report only, sweep
                                            # cells on every core
*)

module Platform = Msp430.Platform
module Trace = Msp430.Trace

open Cmdliner

let benchmark_arg =
  let doc = "Bundled benchmark name (stringsearch, dijkstra, crc, rc4, fft, aes, lzfx, bitcount, rsa, arith, journal)." in
  Arg.(value & opt (some string) None & info [ "benchmark"; "b" ] ~doc)

let file_arg =
  let doc = "mini-C source file to compile and run." in
  Arg.(value & opt (some file) None & info [ "file"; "f" ] ~doc)

let system_arg =
  let doc = "Caching system: baseline, swapram, block or checkpoint." in
  Arg.(value & opt string "swapram" & info [ "system"; "s" ] ~doc)

let placement_arg =
  let doc = "Memory placement: unified, standard, code-sram, all-sram or split." in
  Arg.(value & opt string "unified" & info [ "placement"; "p" ] ~doc)

let freq_arg =
  let doc = "CPU frequency in MHz (8 or 24)." in
  Arg.(value & opt int 24 & info [ "freq" ] ~doc)

let seed_arg =
  let doc = "Input generation seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let blacklist_arg =
  let doc = "Function excluded from caching (repeatable)." in
  Arg.(value & opt_all string [] & info [ "blacklist" ] ~doc)

let engine_arg =
  let doc =
    "Simulator execution engine: superblock (default), reference, or — for \
     the run command only — check, which executes the configuration under \
     both engines and fails unless every simulated result matches exactly \
     and the recordings under both engines are byte-identical."
  in
  Arg.(value & opt string "superblock" & info [ "engine" ] ~doc)

let jobs_arg =
  let doc =
    "Shard independent runs across N forked workers (0 = one per core). \
     Cannot change any simulated value."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~doc)

let resolve_jobs n = if n <= 0 then Experiments.Parallel.ncores () else n

(* [check] is handled per-command (only run supports it). *)
let parse_engine = function
  | "check" -> Ok `Check
  | s -> (
      match Msp430.Cpu.engine_of_string s with
      | Some e -> Ok (`Engine e)
      | None -> Error ("unknown engine " ^ s ^ " (reference|superblock|check)"))

let parse_engine_only what s =
  match parse_engine s with
  | Ok (`Engine e) -> Ok e
  | Ok `Check -> Error ("--engine check is not supported by " ^ what)
  | Error e -> Error e

let parse_system blacklist = function
  | "baseline" -> Ok Experiments.Toolchain.Baseline
  | "swapram" ->
      Ok
        (Experiments.Toolchain.Swapram_cache
           { Swapram.Config.default_options with Swapram.Config.blacklist })
  | "block" ->
      Ok (Experiments.Toolchain.Block_cache Blockcache.Config.default_options)
  | "checkpoint" ->
      Ok
        (Experiments.Toolchain.Checkpoint_runtime
           Swapram.Checkpoint.default_options)
  | s -> Error ("unknown system " ^ s)

let parse_placement = function
  | "unified" -> Ok Experiments.Toolchain.Unified
  | "standard" -> Ok Experiments.Toolchain.Standard
  | "code-sram" -> Ok Experiments.Toolchain.Code_sram
  | "all-sram" -> Ok Experiments.Toolchain.All_sram
  | "split" -> Ok Experiments.Toolchain.Split
  | s -> Error ("unknown placement " ^ s)

let parse_freq = function
  | 8 -> Ok Platform.Mhz8
  | 24 -> Ok Platform.Mhz24
  | f -> Error (Printf.sprintf "unsupported frequency %d MHz" f)

let load_benchmark ~benchmark ~file ~seed =
  match (benchmark, file) with
  | Some name, None -> (
      match Workloads.Suite.find name with
      | Some b -> Ok b
      | None -> Error ("unknown benchmark " ^ name))
  | None, Some path ->
      let ic = open_in path in
      let n = in_channel_length ic in
      let source = really_input_string ic n in
      close_in ic;
      ignore seed;
      Ok
        {
          Workloads.Bench_def.name = Filename.basename path;
          short = "USR";
          source = (fun _ -> source);
          fits_data_in_sram = false;
        }
  | _ -> Error "pass exactly one of --benchmark or --file"

let ( let* ) r f = match r with Ok v -> f v | Error e -> `Error (false, e)

(* --telemetry[=PATH]: enable the host-side run ledger around a
   command. The manifest header carries the command name plus
   whatever identifying fields the command computed (seed, jobs,
   fingerprints); the sink is closed on every exit path so the ledger
   is complete even when the command fails. *)
let telemetry_arg =
  let doc =
    "Write a host-telemetry run ledger (append-only JSONL of spans, counters \
     and worker-lifecycle records) to $(docv); just --telemetry defaults to \
     telemetry.jsonl. Inspect with the timeline command. Telemetry is \
     non-perturbing: simulated results and reports are byte-identical with \
     the flag on or off."
  in
  Arg.(
    value
    & opt ~vopt:(Some "telemetry.jsonl") (some string) None
    & info [ "telemetry" ] ~docv:"PATH" ~doc)

let with_telemetry ~command ~fields telemetry f =
  match telemetry with
  | None -> f ()
  | Some path -> (
      match Observe.Telemetry.enable path with
      | Error e -> `Error (false, e)
      | Ok () ->
          Observe.Telemetry.manifest
            (("tool", Observe.Json.String "swapram_cli")
            :: ("command", Observe.Json.String command)
            :: fields);
          Fun.protect ~finally:Observe.Telemetry.disable f)

(* Toolchain.run (or run_recorded into [trace]), staged so that the
   CPU's engine counters can be read once the run ends. *)
let run_counting ?trace config =
  let open Experiments.Toolchain in
  match prepare config with
  | Error msg -> (Did_not_fit msg, None)
  | Ok p ->
      let cpu = p.p_system.Msp430.Platform.cpu in
      let outcome =
        match trace with
        | Some trace -> record_prepared ~trace p
        | None -> (
            boot p;
            match Msp430.Cpu.run ~fuel:config.fuel cpu with
            | Msp430.Cpu.Halted -> Completed (collect p)
            | o -> Crashed o)
      in
      (outcome, Some (Msp430.Cpu.engine_counters cpu))

(* The configuration recorded under [engine] to a temporary file: the
   file's bytes on a clean halt, and the engine counters. *)
let record_counting config engine =
  let trace = Filename.temp_file "engine-check-" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove trace with Sys_error _ -> ())
    (fun () ->
      match
        run_counting ~trace { config with Experiments.Toolchain.engine }
      with
      | Experiments.Toolchain.Completed _, Some k ->
          Some (In_channel.with_open_bin trace In_channel.input_all, k)
      | _ -> None)

let print_counters (k : Msp430.Cpu.counters) =
  let open Msp430.Cpu in
  Printf.printf
    "superblocks  : %d recorded (%d instructions), %d replayed (%d \
     instructions)\n"
    k.blocks_recorded k.instrs_recorded k.blocks_replayed k.instrs_replayed;
  Printf.printf
    "fallbacks    : %d first-word, %d extension-word; %d blocks \
     invalidated\n"
    k.first_word_fallbacks k.ext_word_fallbacks k.invalidations

(* --engine check: execute the same configuration under the reference
   interpreter and the superblock engine, and fail unless every
   simulated result matches exactly; then record it under each engine
   and fail unless the two trace files are byte-identical (an observed
   run under each engine emits the same event stream). Prints what the
   superblock engine did, unobserved and observed. CI's engine
   differential smoke step runs this; host throughput is perf's
   msp430.minstr_per_s. *)
let check_engines config b seed =
  let reference =
    Experiments.Toolchain.run
      { config with Experiments.Toolchain.engine = Msp430.Cpu.Reference }
  in
  let superblock, counters =
    run_counting
      { config with Experiments.Toolchain.engine = Msp430.Cpu.Superblock }
  in
  match (reference, superblock, counters) with
  | Experiments.Toolchain.Completed r, Experiments.Toolchain.Completed s, Some k
    -> (
      let open Experiments.Toolchain in
      let mismatches =
        List.filter_map
          (fun (what, same) -> if same then None else Some what)
          [
            ("stats", r.stats = s.stats);
            ("energy", r.energy = s.energy);
            ("uart", r.uart = s.uart);
            ("return value", r.return_value = s.return_value);
            ("swapram stats", r.swapram_stats = s.swapram_stats);
            ("block stats", r.block_stats = s.block_stats);
          ]
      in
      if mismatches <> [] then
        `Error
          ( false,
            Printf.sprintf "engines disagree on %s: %s"
              b.Workloads.Bench_def.name
              (String.concat ", " mismatches) )
      else
        match
          ( record_counting config Msp430.Cpu.Reference,
            record_counting config Msp430.Cpu.Superblock )
        with
        | None, _ | _, None ->
            `Error (false, "engine check: a recorded run did not complete")
        | Some (ref_trace, _), Some (sb_trace, observed) ->
            if not (String.equal ref_trace sb_trace) then
              `Error
                ( false,
                  Printf.sprintf
                    "engines record different traces of %s (%d vs %d bytes)"
                    b.Workloads.Bench_def.name (String.length ref_trace)
                    (String.length sb_trace) )
            else begin
              Printf.printf "benchmark    : %s (seed %d)\n"
                b.Workloads.Bench_def.name seed;
              Printf.printf "cycles       : %d (both engines)\n"
                (Trace.total_cycles r.stats);
              Printf.printf "instructions : %d (both engines)\n"
                r.stats.Trace.instructions;
              Printf.printf "energy       : %.1f uJ (both engines)\n"
                (r.energy.Msp430.Energy.energy_nj /. 1000.0);
              Printf.printf "check        : OK — simulated results identical\n";
              print_counters k;
              Printf.printf
                "recording    : OK — %d bytes, identical under both engines\n"
                (String.length sb_trace);
              Printf.printf "observed run :\n";
              print_counters observed;
              `Ok ()
            end)
  | _ ->
      `Error
        ( false,
          "engine check needs a configuration that runs to a clean halt \
           under both engines" )

let run_cmd benchmark file system placement freq seed blacklist engine telemetry
    =
  let* b = load_benchmark ~benchmark ~file ~seed in
  let* caching = parse_system blacklist system in
  let* placement = parse_placement placement in
  let* frequency = parse_freq freq in
  let* engine = parse_engine engine in
  let config =
    {
      (Experiments.Toolchain.default_config b) with
      Experiments.Toolchain.seed;
      caching;
      placement;
      frequency;
    }
  in
  with_telemetry ~command:"run" telemetry
    ~fields:
      [
        ("benchmark", Observe.Json.String b.Workloads.Bench_def.name);
        ("seed", Observe.Json.Int seed);
        ("system", Observe.Json.String (Experiments.Toolchain.caching_name caching));
        ( "config_fingerprint",
          Observe.Json.Int (Experiments.Toolchain.config_fingerprint config) );
      ]
  @@ fun () ->
  match engine with
  | `Check -> check_engines config b seed
  | `Engine e -> (
  let config = { config with Experiments.Toolchain.engine = e } in
  match Experiments.Toolchain.run config with
  | Experiments.Toolchain.Did_not_fit msg ->
      `Error (false, "binary does not fit the platform: " ^ msg)
  | Experiments.Toolchain.Crashed o ->
      `Error (false, "run did not halt: " ^ Experiments.Report.outcome_cell o)
  | Experiments.Toolchain.Completed r ->
      let stats = r.Experiments.Toolchain.stats in
      Printf.printf "benchmark    : %s (seed %d)\n" b.Workloads.Bench_def.name seed;
      Printf.printf "system       : %s, %s, %s\n"
        (Experiments.Toolchain.caching_name caching)
        (match caching with
        | Experiments.Toolchain.Checkpoint_runtime _ ->
            (* the toolchain forces data+stack into SRAM so snapshots
               cover the whole machine state *)
            Experiments.Toolchain.placement_name
              Experiments.Toolchain.Standard
            ^ " (forced)"
        | _ -> Experiments.Toolchain.placement_name placement)
        (Platform.frequency_name frequency);
      Printf.printf "binary       : %d B code, %d B data\n"
        r.Experiments.Toolchain.sizes.Experiments.Toolchain.code_bytes
        r.Experiments.Toolchain.sizes.Experiments.Toolchain.data_bytes;
      Printf.printf "cycles       : %d unstalled + %d stalls = %d\n"
        stats.Trace.unstalled_cycles stats.Trace.stall_cycles
        (Trace.total_cycles stats);
      Printf.printf "time         : %.3f ms\n"
        (r.Experiments.Toolchain.energy.Msp430.Energy.time_s *. 1000.0);
      Printf.printf "energy       : %.1f uJ\n"
        (r.Experiments.Toolchain.energy.Msp430.Energy.energy_nj /. 1000.0);
      Printf.printf "FRAM accesses: %d (%d ifetch, %d data reads, %d writes)\n"
        (Trace.fram_accesses stats) stats.Trace.fram_ifetch
        stats.Trace.fram_data_reads stats.Trace.fram_writes;
      Printf.printf "SRAM accesses: %d\n" (Trace.sram_accesses stats);
      Printf.printf "instructions : %d (%.1f%% from SRAM)\n"
        stats.Trace.instructions
        (100.0 *. Trace.instr_fraction stats Trace.App_sram);
      (match r.Experiments.Toolchain.swapram_stats with
      | Some s ->
          Printf.printf
            "swapram      : %d misses, %d evictions, %d aborts, %d words copied\n"
            s.Swapram.Runtime.misses s.Swapram.Runtime.evictions
            (s.Swapram.Runtime.aborts + s.Swapram.Runtime.too_large)
            s.Swapram.Runtime.words_copied
      | None -> ());
      (match r.Experiments.Toolchain.block_stats with
      | Some s ->
          Printf.printf
            "block cache  : %d misses, %d loads, %d chains, %d flushes\n"
            s.Blockcache.Runtime.misses s.Blockcache.Runtime.block_loads
            s.Blockcache.Runtime.chains s.Blockcache.Runtime.flushes
      | None -> ());
      Printf.printf "uart         : %s\n"
        (String.concat "\\n"
           (String.split_on_char '\n' r.Experiments.Toolchain.uart));
      `Ok ())

(* Profile: run with the observability stack attached and print the
   per-function cycle/energy attribution. --verify re-runs the same
   configuration unobserved and checks the totals match exactly —
   tracing must perturb nothing. *)
let profile_cmd benchmark file system placement freq seed blacklist engine top
    folded chrome verify =
  let* b = load_benchmark ~benchmark ~file ~seed in
  let* caching = parse_system blacklist system in
  let* placement = parse_placement placement in
  let* frequency = parse_freq freq in
  let* engine = parse_engine_only "profile" engine in
  let config =
    {
      (Experiments.Toolchain.default_config b) with
      Experiments.Toolchain.seed;
      caching;
      placement;
      frequency;
      engine;
    }
  in
  let params =
    match frequency with
    | Platform.Mhz8 -> Msp430.Energy.point_8mhz
    | Platform.Mhz24 -> Msp430.Energy.point_24mhz
  in
  match
    Experiments.Toolchain.run ~observe:Experiments.Toolchain.default_observe
      config
  with
  | Experiments.Toolchain.Did_not_fit msg ->
      `Error (false, "binary does not fit the platform: " ^ msg)
  | Experiments.Toolchain.Crashed o ->
      `Error (false, "run did not halt: " ^ Experiments.Report.outcome_cell o)
  | Experiments.Toolchain.Completed r -> (
      let obs =
        match r.Experiments.Toolchain.observation with
        | Some obs -> obs
        | None -> assert false (* ~observe was passed *)
      in
      let profiler = obs.Experiments.Toolchain.o_profiler in
      let stats = r.Experiments.Toolchain.stats in
      Printf.printf "benchmark    : %s (seed %d)\n" b.Workloads.Bench_def.name
        seed;
      Printf.printf "system       : %s, %s, %s\n"
        (Experiments.Toolchain.caching_name caching)
        (Experiments.Toolchain.placement_name placement)
        (Platform.frequency_name frequency);
      Printf.printf "cycles       : %d unstalled + %d stalls = %d\n"
        stats.Trace.unstalled_cycles stats.Trace.stall_cycles
        (Trace.total_cycles stats);
      Printf.printf "runtime share: %.1f%% of cycles in the caching runtime\n\n"
        (100.0
        *. (Observe.Profiler.source_share profiler Trace.Handler
           +. Observe.Profiler.source_share profiler Trace.Memcpy));
      if folded then
        List.iter print_endline (Observe.Profiler.folded_lines profiler)
      else print_string (Observe.Profiler.render ~top ~params profiler);
      (match chrome with
      | Some path ->
          let events =
            match obs.Experiments.Toolchain.o_events with
            | Some e -> e
            | None -> assert false
          in
          let oc = open_out path in
          output_string oc
            (Observe.Chrome.export
               ~symtab:obs.Experiments.Toolchain.o_symtab events);
          close_out oc;
          Printf.printf "\nwrote Chrome trace to %s\n" path
      | None -> ());
      if not verify then `Ok ()
      else
        match Experiments.Toolchain.run config with
        | Experiments.Toolchain.Completed plain ->
            let ps = plain.Experiments.Toolchain.stats in
            let totals = Observe.Profiler.totals profiler in
            let ok =
              Trace.total_cycles ps = Trace.total_cycles stats
              && ps.Trace.instructions = stats.Trace.instructions
              && Trace.total_cycles ps = Observe.Profiler.cycles_of totals
              && ps.Trace.instructions = totals.Observe.Profiler.instrs
              && plain.Experiments.Toolchain.uart
                 = r.Experiments.Toolchain.uart
            in
            if ok then begin
              Printf.printf
                "\nverify       : OK — untraced run identical (%d cycles, %d \
                 instructions)\n"
                (Trace.total_cycles ps) ps.Trace.instructions;
              `Ok ()
            end
            else
              `Error
                ( false,
                  Printf.sprintf
                    "tracing perturbed the run: traced %d cycles / %d instrs, \
                     untraced %d cycles / %d instrs, attributed %d cycles"
                    (Trace.total_cycles stats) stats.Trace.instructions
                    (Trace.total_cycles ps) ps.Trace.instructions
                    (Observe.Profiler.cycles_of totals) )
        | _ -> `Error (false, "verification rerun did not complete"))

(* Metrics: run with the windowed time-series sampler attached and
   print the cache-dynamics series, address heatmaps and miss-ratio
   curve. *)
let metrics_cmd benchmark file system placement freq seed blacklist engine
    window buckets csv =
  let* b = load_benchmark ~benchmark ~file ~seed in
  let* caching = parse_system blacklist system in
  let* placement = parse_placement placement in
  let* frequency = parse_freq freq in
  let* engine = parse_engine_only "metrics" engine in
  let* () = if window <= 0 then Error "--window must be positive" else Ok () in
  let* () = if buckets <= 0 then Error "--buckets must be positive" else Ok () in
  let config =
    {
      (Experiments.Toolchain.default_config b) with
      Experiments.Toolchain.seed;
      caching;
      placement;
      frequency;
      engine;
    }
  in
  let observe =
    {
      Experiments.Toolchain.default_observe with
      Experiments.Toolchain.metrics_window = window;
      metrics_buckets = buckets;
    }
  in
  match Experiments.Toolchain.run ~observe config with
  | Experiments.Toolchain.Did_not_fit msg ->
      `Error (false, "binary does not fit the platform: " ^ msg)
  | Experiments.Toolchain.Crashed o ->
      `Error (false, "run did not halt: " ^ Experiments.Report.outcome_cell o)
  | Experiments.Toolchain.Completed r -> (
      match r.Experiments.Toolchain.observation with
      | Some { Experiments.Toolchain.o_metrics = Some m; _ } ->
          if csv then print_string (Observe.Metrics.render_csv m)
          else begin
            Printf.printf "benchmark    : %s (seed %d)\n"
              b.Workloads.Bench_def.name seed;
            Printf.printf "system       : %s, %s, %s\n"
              (Experiments.Toolchain.caching_name caching)
              (Experiments.Toolchain.placement_name placement)
              (Platform.frequency_name frequency);
            Printf.printf "window       : %d cycles\n\n" window;
            print_string (Observe.Metrics.render_series m);
            print_newline ();
            print_string (Observe.Metrics.render_heatmaps m);
            print_newline ();
            print_string (Observe.Metrics.render_mrc m)
          end;
          `Ok ()
      | Some _ | None -> `Error (false, "metrics sampler was not attached"))

(* Profile-guided placement: train -> rebuild -> measure.

     swapram_cli pgo -b rc4                  # full loop, print the delta
     swapram_cli pgo -b rc4 --train p.json   # training run only, save profile
     swapram_cli pgo -b rc4 --profile p.json # place a saved profile
     swapram_cli pgo -b rc4 --gate           # nonzero exit if PGO is slower
*)
let read_profile path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Swapram.Pgo.profile_of_string s with
  | Ok p -> Ok p
  | Error e -> Error (path ^ ": " ^ e)

let pgo_cmd benchmark file freq seed blacklist engine budget train profile gate
    telemetry =
  let* b = load_benchmark ~benchmark ~file ~seed in
  let* frequency = parse_freq freq in
  let* engine = parse_engine_only "pgo" engine in
  let options =
    { Swapram.Config.default_options with Swapram.Config.blacklist }
  in
  let config =
    {
      (Experiments.Toolchain.default_config b) with
      Experiments.Toolchain.seed;
      frequency;
      caching = Experiments.Toolchain.Swapram_cache options;
      engine;
    }
  in
  with_telemetry ~command:"pgo" telemetry
    ~fields:
      [
        ("benchmark", Observe.Json.String b.Workloads.Bench_def.name);
        ("seed", Observe.Json.Int seed);
        ( "config_fingerprint",
          Observe.Json.Int (Experiments.Toolchain.config_fingerprint config) );
      ]
  @@ fun () ->
  match train with
  | Some path -> (
      (* training only: run observed under the default placement and
         serialize the per-function profile *)
      match
        Experiments.Toolchain.run
          ~observe:Experiments.Toolchain.default_observe config
      with
      | Experiments.Toolchain.Did_not_fit msg ->
          `Error (false, "binary does not fit the platform: " ^ msg)
      | Experiments.Toolchain.Crashed o ->
          `Error
            (false, "training run did not halt: " ^ Experiments.Report.outcome_cell o)
      | Experiments.Toolchain.Completed r ->
          let obs = Option.get r.Experiments.Toolchain.observation in
          let manifest =
            Option.get r.Experiments.Toolchain.swapram_manifest
          in
          let p =
            Experiments.Toolchain.profile_of_training
              ~benchmark:b.Workloads.Bench_def.name
              ~cache_size:options.Swapram.Config.cache_size manifest
              obs.Experiments.Toolchain.o_profiler
          in
          let oc = open_out path in
          output_string oc (Swapram.Pgo.profile_to_string p);
          close_out oc;
          Printf.printf "wrote profile for %s (%d functions) to %s\n"
            b.Workloads.Bench_def.name
            (List.length p.Swapram.Pgo.pr_funcs)
            path;
          `Ok ())
  | None -> (
      let* profile =
        match profile with
        | None -> Ok None
        | Some path -> (
            match read_profile path with
            | Ok p -> Ok (Some p)
            | Error e -> Error e)
      in
      match Experiments.Toolchain.run_pgo ?budget ?profile config with
      | Error e -> `Error (false, e)
      | Ok r -> (
          match r.Experiments.Toolchain.pg_measured with
          | Experiments.Toolchain.Did_not_fit msg ->
              `Error (false, "PGO binary does not fit the platform: " ^ msg)
          | Experiments.Toolchain.Crashed o ->
              `Error
                ( false,
                  "PGO run did not halt: " ^ Experiments.Report.outcome_cell o
                )
          | Experiments.Toolchain.Completed m ->
              let placement = r.Experiments.Toolchain.pg_placement in
              let train_r = r.Experiments.Toolchain.pg_train in
              let tc =
                Trace.total_cycles train_r.Experiments.Toolchain.stats
              in
              let mc = Trace.total_cycles m.Experiments.Toolchain.stats in
              let te =
                train_r.Experiments.Toolchain.energy.Msp430.Energy.energy_nj
              in
              let me = m.Experiments.Toolchain.energy.Msp430.Energy.energy_nj in
              let delta o n =
                if o = 0.0 then 0.0 else 100.0 *. (n -. o) /. o
              in
              Printf.printf "benchmark    : %s (seed %d)\n"
                b.Workloads.Bench_def.name seed;
              Printf.printf "pinned       : %s\n"
                (match placement.Swapram.Pgo.pl_pinned with
                | [] -> "(none)"
                | l -> String.concat " " l);
              Printf.printf "fram-resident: %s\n"
                (match placement.Swapram.Pgo.pl_fram_resident with
                | [] -> "(none)"
                | l -> String.concat " " l);
              Printf.printf "budget       : %d B pinned budget\n"
                placement.Swapram.Pgo.pl_budget;
              Printf.printf "cycles       : %d default -> %d pgo (%+.2f%%)\n"
                tc mc
                (delta (float_of_int tc) (float_of_int mc));
              Printf.printf "energy       : %.1f uJ default -> %.1f uJ pgo (%+.2f%%)\n"
                (te /. 1000.0) (me /. 1000.0) (delta te me);
              (match
                 ( train_r.Experiments.Toolchain.swapram_stats,
                   m.Experiments.Toolchain.swapram_stats )
               with
              | Some d, Some p ->
                  Printf.printf
                    "misses       : %d default -> %d pgo (%d pinned copies)\n"
                    d.Swapram.Runtime.misses p.Swapram.Runtime.misses
                    p.Swapram.Runtime.pins
              | _ -> ());
              if gate && mc > tc then
                `Error
                  ( false,
                    Printf.sprintf
                      "PGO gate failed: %d cycles > %d default cycles" mc tc )
              else `Ok ()))

(* Compare: the perf-regression gate. Nonzero exit on any regression
   beyond the per-metric thresholds (or structural mismatch), so CI
   can gate on `swapram_cli compare bench/baseline.json report.json`. *)
let compare_cmd old_path new_path threshold =
  let thresholds =
    match threshold with
    | None -> Experiments.Compare.default_thresholds
    | Some t ->
        List.map (fun (m, _) -> (m, t)) Experiments.Compare.default_thresholds
  in
  match Experiments.Compare.compare_files ~thresholds old_path new_path with
  | Error e -> `Error (false, e)
  | Ok outcome ->
      print_string (Experiments.Compare.render outcome);
      let regs = Experiments.Compare.regressions outcome in
      if regs = [] && outcome.Experiments.Compare.errors = [] then `Ok ()
      else
        `Error
          ( false,
            Printf.sprintf "perf gate failed: %d regression(s), %d error(s)"
              (List.length regs)
              (List.length outcome.Experiments.Compare.errors) )

let asm_cmd benchmark file seed instrumented =
  let* b = load_benchmark ~benchmark ~file ~seed in
  let program =
    Minic.Driver.program_of_source (b.Workloads.Bench_def.source seed)
  in
  let program =
    if not instrumented then program
    else
      let built = Swapram.Pipeline.build program in
      built.Swapram.Pipeline.program
  in
  Format.printf "%a@." Masm.Ast.pp_program program;
  `Ok ()

(* objdump-style listing of the assembled image *)
let disasm_cmd benchmark file seed instrumented =
  let* b = load_benchmark ~benchmark ~file ~seed in
  let program =
    Minic.Driver.program_of_source (b.Workloads.Bench_def.source seed)
  in
  let image =
    if instrumented then
      (Swapram.Pipeline.build program).Swapram.Pipeline.image
    else Masm.Assembler.assemble program
  in
  let reverse = Hashtbl.create 97 in
  Hashtbl.iter
    (fun name addr ->
      if not (Hashtbl.mem reverse addr) then Hashtbl.replace reverse addr name)
    image.Masm.Assembler.symbols;
  List.iter
    (fun (addr, instr) ->
      (match Hashtbl.find_opt reverse addr with
      | Some name -> Printf.printf "\n%04x <%s>:\n" addr name
      | None -> ());
      Printf.printf "  %04x:  %s\n" addr (Msp430.Isa.to_string instr))
    image.Masm.Assembler.instructions;
  `Ok ()

(* Execution trace: run under a tracer and print the first N decoded
   instructions with their addresses, mspdebug-style. *)
let trace_cmd benchmark file system seed limit =
  let* b = load_benchmark ~benchmark ~file ~seed in
  let* caching = parse_system [] system in
  let source = b.Workloads.Bench_def.source seed in
  let program = Minic.Driver.program_of_source source in
  let system_ = Platform.create Platform.Mhz24 in
  let entry =
    match caching with
    | Experiments.Toolchain.Swapram_cache options ->
        let built = Swapram.Pipeline.build ~options program in
        ignore (Swapram.Pipeline.install built system_);
        Masm.Assembler.lookup built.Swapram.Pipeline.image
          Minic.Driver.entry_name
    | _ ->
        let image = Masm.Assembler.assemble program in
        Masm.Assembler.load image system_.Platform.memory;
        Masm.Assembler.lookup image Minic.Driver.entry_name
  in
  Msp430.Cpu.set_reg system_.Platform.cpu Msp430.Isa.sp
    (Platform.fram_base + Platform.fram_size);
  Msp430.Cpu.set_reg system_.Platform.cpu Msp430.Isa.pc entry;
  let remaining = ref limit in
  Msp430.Cpu.set_tracer system_.Platform.cpu
    (Some
       (fun ~pc instr ->
         if !remaining > 0 then begin
           decr remaining;
           Printf.printf "%06d  %04x:  %s
"
             (limit - !remaining)
             pc
             (Msp430.Isa.to_string instr)
         end));
  let rec loop () =
    if !remaining > 0 && not (Msp430.Cpu.halted system_.Platform.cpu) then begin
      Msp430.Cpu.step system_.Platform.cpu;
      loop ()
    end
  in
  loop ();
  `Ok ()

let limit_arg =
  let doc = "Number of instructions to trace." in
  Arg.(value & opt int 100 & info [ "limit"; "n" ] ~doc)

(* Record once / replay many: capture the counted event stream into a
   compact binary trace, then re-evaluate cache models against the
   trace in microseconds instead of re-executing the CPU. *)

let trace_out_arg =
  let doc = "Trace file to write." in
  Arg.(
    required & opt (some string) None & info [ "out"; "o" ] ~docv:"PATH" ~doc)

let record_cmd benchmark file system placement freq seed blacklist out
    telemetry =
  let* b = load_benchmark ~benchmark ~file ~seed in
  let* caching = parse_system blacklist system in
  let* placement = parse_placement placement in
  let* frequency = parse_freq freq in
  let config =
    {
      (Experiments.Toolchain.default_config b) with
      Experiments.Toolchain.seed;
      caching;
      placement;
      frequency;
    }
  in
  with_telemetry ~command:"record" telemetry
    ~fields:
      [
        ("benchmark", Observe.Json.String b.Workloads.Bench_def.name);
        ("seed", Observe.Json.Int seed);
        ("trace", Observe.Json.String out);
        ( "config_fingerprint",
          Observe.Json.Int (Experiments.Toolchain.config_fingerprint config) );
      ]
  @@ fun () ->
  match Experiments.Toolchain.run_recorded ~trace:out config with
  | Experiments.Toolchain.Did_not_fit msg ->
      `Error (false, "binary does not fit the platform: " ^ msg)
  | Experiments.Toolchain.Crashed o ->
      `Error (false, "run did not halt: " ^ Experiments.Report.outcome_cell o)
  | Experiments.Toolchain.Completed r -> (
      match Replay.Engine.load out with
      | Error e -> `Error (false, out ^ ": " ^ Replay.Engine.error_message e)
      | Ok l -> (
          let stats = r.Experiments.Toolchain.stats in
          Printf.printf "benchmark    : %s (seed %d)\n"
            b.Workloads.Bench_def.name seed;
          Printf.printf "system       : %s, %s, %s\n"
            (Experiments.Toolchain.caching_name caching)
            (Experiments.Toolchain.placement_name placement)
            (Platform.frequency_name frequency);
          Printf.printf "cycles       : %d unstalled + %d stalls = %d\n"
            stats.Trace.unstalled_cycles stats.Trace.stall_cycles
            (Trace.total_cycles stats);
          Printf.printf "events       : %d (%d B on disk)\n"
            l.Replay.Engine.events l.Replay.Engine.bytes;
          Printf.printf "fingerprint  : %d\n"
            l.Replay.Engine.header.Replay.Trace_file.fingerprint;
          match Experiments.Replay_sweep.verify_exact l r with
          | [] ->
              Printf.printf
                "self-check   : OK — trace replays the recording exactly\n";
              `Ok ()
          | m :: _ ->
              `Error (false, "recorded trace does not replay exactly: " ^ m)))

let trace_pos_arg =
  let doc = "Recorded trace file (from the record command)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)

let replay_budget_arg =
  let doc = "Cache budget in bytes to simulate (repeatable; default 1024, 2048 and 4096)." in
  Arg.(value & opt_all int [] & info [ "budget" ] ~doc)

let policy_arg =
  let doc = "Replacement policy: lru, lfu or cost (repeatable; default all three)." in
  Arg.(value & opt_all string [] & info [ "policy" ] ~doc)

let block_override_arg =
  let doc = "Line-size override in bytes for line-granular traces." in
  Arg.(value & opt (some int) None & info [ "block" ] ~doc)

let check_arg =
  let doc =
    "Reconstruct the recorded configuration from the trace header, \
     re-execute it, and fail unless the replay reproduces the execution \
     bit-for-bit (cycles, energy, every counter). Only traces recorded \
     under default caching options are reconstructible."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let replay_freq_arg =
  let doc =
    "Recompute the exact totals at this frequency in MHz instead of the \
     recorded one (retargets wait states and the energy model; the \
     event stream is frequency-independent)."
  in
  Arg.(value & opt (some int) None & info [ "freq" ] ~docv:"MHZ" ~doc)

let placement_of_header_name name =
  List.find_opt
    (fun p -> Experiments.Toolchain.placement_name p = name)
    [
      Experiments.Toolchain.Unified;
      Experiments.Toolchain.Standard;
      Experiments.Toolchain.Code_sram;
      Experiments.Toolchain.All_sram;
      Experiments.Toolchain.Split;
    ]

(* --check: the trace header names the recorded configuration; rebuild
   it with default options and refuse (via the fingerprint) if the
   recording used anything the names don't capture. *)
let check_against_execution l =
  let h = l.Replay.Engine.header in
  let* b =
    match Workloads.Suite.find h.Replay.Trace_file.benchmark with
    | Some b -> Ok b
    | None ->
        Error
          ("trace benchmark " ^ h.Replay.Trace_file.benchmark
         ^ " is not in the bundled suite")
  in
  let* caching = parse_system [] h.Replay.Trace_file.system in
  let* placement =
    match placement_of_header_name h.Replay.Trace_file.placement with
    | Some p -> Ok p
    | None -> Error ("unknown placement " ^ h.Replay.Trace_file.placement)
  in
  let* frequency = parse_freq h.Replay.Trace_file.frequency_mhz in
  let config =
    {
      (Experiments.Toolchain.default_config b) with
      Experiments.Toolchain.seed = h.Replay.Trace_file.seed;
      caching;
      placement;
      frequency;
    }
  in
  if
    Experiments.Toolchain.config_fingerprint config
    <> h.Replay.Trace_file.fingerprint
  then
    `Error
      ( false,
        "trace was recorded under non-default options; its configuration \
         cannot be reconstructed from the header names" )
  else
    match Experiments.Toolchain.run config with
    | Experiments.Toolchain.Did_not_fit msg ->
        `Error (false, "check re-execution does not fit: " ^ msg)
    | Experiments.Toolchain.Crashed o ->
        `Error
          (false, "check re-execution did not halt: "
                  ^ Experiments.Report.outcome_cell o)
    | Experiments.Toolchain.Completed res -> (
        match Experiments.Replay_sweep.verify_exact l res with
        | [] ->
            Printf.printf
              "check        : OK — replay reproduces a fresh execution \
               bit-for-bit\n";
            `Ok ()
        | mismatches ->
            `Error
              ( false,
                "replay diverges from execution: "
                ^ String.concat "; " mismatches ))

let replay_cmd trace budgets policies block check freq jobs telemetry =
  let* policies =
    match policies with
    | [] -> Ok Experiments.Replay_sweep.default_policies
    | names ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | n :: rest -> (
              match Replay.Engine.policy_of_string n with
              | Some p -> go (p :: acc) rest
              | None -> Error ("unknown policy " ^ n ^ " (lru|lfu|cost)"))
        in
        go [] names
  in
  let budgets =
    if budgets = [] then Experiments.Replay_sweep.default_budgets else budgets
  in
  with_telemetry ~command:"replay" telemetry
    ~fields:
      [
        ("trace", Observe.Json.String trace);
        ("jobs", Observe.Json.Int (resolve_jobs jobs));
      ]
  @@ fun () ->
  match Replay.Engine.load trace with
  | Error e -> `Error (false, trace ^ ": " ^ Replay.Engine.error_message e)
  | Ok l -> (
      let h = l.Replay.Engine.header in
      Printf.printf "trace        : %s\n" (Filename.basename trace);
      Printf.printf "benchmark    : %s (seed %d)\n"
        h.Replay.Trace_file.benchmark h.Replay.Trace_file.seed;
      Printf.printf "system       : %s, %s, %d MHz\n"
        h.Replay.Trace_file.system h.Replay.Trace_file.placement
        h.Replay.Trace_file.frequency_mhz;
      Printf.printf "granularity  : %s\n"
        (match h.Replay.Trace_file.granularity with
        | Replay.Trace_file.Functions sizes ->
            Printf.sprintf "functions (%d)" (Array.length sizes)
        | Replay.Trace_file.Lines n -> Printf.sprintf "%d B lines" n);
      Printf.printf "events       : %d (%d B on disk)\n" l.Replay.Engine.events
        l.Replay.Engine.bytes;
      Printf.printf "footprint    : %d B\n" (Replay.Engine.footprint l);
      match Replay.Engine.exact ?frequency_mhz:freq l with
      | Error msg -> `Error (false, msg)
      | Ok t -> (
          Printf.printf "cycles       : %d unstalled + %d stalls = %d (at %d \
                         MHz)\n"
            t.Replay.Engine.t_unstalled t.Replay.Engine.t_stall
            t.Replay.Engine.t_cycles t.Replay.Engine.t_frequency_mhz;
          Printf.printf "energy       : %.1f uJ, %.3f ms\n"
            (t.Replay.Engine.t_energy_nj /. 1000.0)
            (t.Replay.Engine.t_time_s *. 1000.0);
          let cells =
            Experiments.Replay_sweep.grid ~budgets ~policies ()
            |> List.map (fun c ->
                   { c with Experiments.Replay_sweep.c_block = block })
          in
          match
            Experiments.Replay_sweep.replay_cells ~jobs:(resolve_jobs jobs)
              ~trace cells
          with
          | Error e -> `Error (false, e)
          | Ok run ->
              List.iter
                (fun (r : Experiments.Replay_sweep.cell_result) ->
                  let sim = r.Experiments.Replay_sweep.r_sim in
                  Printf.printf
                    "cell         : budget=%-5d policy=%-4s refs=%d misses=%d \
                     cold=%d evictions=%d loaded=%d B miss-rate=%.6f\n"
                    r.Experiments.Replay_sweep.r_cell
                      .Experiments.Replay_sweep.c_budget
                    (Replay.Engine.policy_name
                       r.Experiments.Replay_sweep.r_cell
                         .Experiments.Replay_sweep.c_policy)
                    sim.Replay.Engine.s_refs sim.Replay.Engine.s_misses
                    sim.Replay.Engine.s_cold_misses
                    sim.Replay.Engine.s_evictions
                    sim.Replay.Engine.s_bytes_loaded
                    sim.Replay.Engine.s_miss_rate)
                run.Experiments.Replay_sweep.cells;
              (* jobs-independent: the hit/miss partition happens
                 before any cell is dispatched *)
              let ms = Experiments.Replay_sweep.memo_stats () in
              Printf.printf "memo         : %d hit, %d computed, %d stale\n"
                ms.Experiments.Replay_sweep.hits
                ms.Experiments.Replay_sweep.misses
                ms.Experiments.Replay_sweep.stale;
              if check then check_against_execution l else `Ok ()))

(* Power-failure injection with the crash-consistency oracle. *)

let mode_arg =
  let doc =
    "Injection mode: sweep (periodic gaps from --period, repeatable), \
     periodic (single gap), random (seeded bursts) or adversarial \
     (outages aimed at the runtime's critical windows)."
  in
  Arg.(value & opt string "sweep" & info [ "mode"; "m" ] ~doc)

let period_arg =
  let doc = "Outage period in counted memory accesses (repeatable)." in
  Arg.(value & opt_all int [] & info [ "period" ] ~doc)

let crash_seed_arg =
  let doc = "Seed for the random outage schedule." in
  Arg.(value & opt int 42 & info [ "crash-seed" ] ~doc)

let max_reboots_arg =
  let doc = "Watchdog: reboots before a run is declared a livelock." in
  Arg.(value & opt int 2000 & info [ "max-reboots" ] ~doc)

let watchdog_cycles_arg =
  let doc =
    "Watchdog: cumulative simulated cycles across all lives before a run is \
     declared a livelock (0 = unbounded)."
  in
  Arg.(value & opt int 0 & info [ "watchdog-cycles" ] ~doc)

let faultinject_cmd benchmark file system placement freq seed blacklist engine
    jobs mode periods crash_seed max_reboots watchdog_cycles telemetry =
  let* b = load_benchmark ~benchmark ~file ~seed in
  let* caching = parse_system blacklist system in
  let* placement = parse_placement placement in
  let* frequency = parse_freq freq in
  let* engine = parse_engine_only "faultinject" engine in
  let config =
    {
      (Experiments.Toolchain.default_config b) with
      Experiments.Toolchain.seed;
      caching;
      placement;
      frequency;
      engine;
    }
  in
  let periods = if periods = [] then [ 400_000; 150_000; 80_000 ] else periods in
  let* schedules =
    match mode with
    | "sweep" ->
        Ok (List.map (fun p -> Faultinject.Schedule.Periodic p) periods)
    | "periodic" -> Ok [ Faultinject.Schedule.Periodic (List.hd periods) ]
    | "random" ->
        Ok
          [
            Faultinject.Schedule.Random
              { seed = crash_seed; min_gap = 30_000; max_gap = 300_000 };
          ]
    | "adversarial" -> Ok [ Faultinject.Schedule.adversarial ]
    | m -> Error ("unknown injection mode " ^ m)
  in
  with_telemetry ~command:"faultinject" telemetry
    ~fields:
      [
        ("benchmark", Observe.Json.String b.Workloads.Bench_def.name);
        ("seed", Observe.Json.Int seed);
        ("mode", Observe.Json.String mode);
        ("jobs", Observe.Json.Int (resolve_jobs jobs));
        ( "config_fingerprint",
          Observe.Json.Int (Experiments.Toolchain.config_fingerprint config) );
      ]
  @@ fun () ->
  match
    Faultinject.Injector.sweep ~max_reboots
      ?watchdog_cycles:
        (if watchdog_cycles <= 0 then None else Some watchdog_cycles)
      ~jobs:(resolve_jobs jobs) config schedules
  with
  | Error msg -> `Error (false, "golden run failed: " ^ msg)
  | Ok reports ->
      print_endline (Faultinject.Injector.table reports);
      let failures =
        List.filter (fun r -> not (Faultinject.Injector.passed r)) reports
      in
      if failures = [] then `Ok ()
      else
        `Error
          ( false,
            Printf.sprintf "%d of %d injected runs failed the oracle"
              (List.length failures) (List.length reports) )

(* Monte-Carlo campaign: randomized schedules over a grid of
   benchmarks x runtimes x samplers, aggregated with Wilson CIs. *)

let campaign_benchmarks_arg =
  let doc =
    "Benchmark in the campaign grid (repeatable; default journal and crc)."
  in
  Arg.(value & opt_all string [] & info [ "benchmark"; "b" ] ~doc)

let campaign_systems_arg =
  let doc =
    "Runtime under test: baseline, swapram, block or checkpoint (repeatable; \
     default swapram, block and checkpoint)."
  in
  Arg.(value & opt_all string [] & info [ "system"; "s" ] ~doc)

let sampler_arg =
  let doc =
    "Power-failure sampler: uniform, bursty or near-eviction (repeatable; \
     default all three)."
  in
  Arg.(value & opt_all string [] & info [ "sampler" ] ~doc)

let trials_arg =
  let doc = "Trials per cell." in
  Arg.(value & opt int 200 & info [ "trials"; "n" ] ~doc)

let shard_arg =
  let doc = "Trials per shard (the unit of dispatch and checkpointing)." in
  Arg.(value & opt int 25 & info [ "shard" ] ~doc)

let campaign_max_reboots_arg =
  let doc = "Per-trial watchdog: reboots before a livelock verdict." in
  Arg.(value & opt int 1000 & info [ "max-reboots" ] ~doc)

let watchdog_scale_arg =
  let doc =
    "Per-trial cycle watchdog as a multiple of the cell's golden cycles."
  in
  Arg.(value & opt int 16 & info [ "watchdog-scale" ] ~doc)

let ci_width_arg =
  let doc =
    "Stop a cell early once the 95% Wilson interval on its crash-consistency \
     rate is narrower than $(docv) (e.g. 0.05); omit to run every trial."
  in
  Arg.(value & opt (some float) None & info [ "ci-width" ] ~docv:"WIDTH" ~doc)

let resume_arg =
  let doc =
    "Progress checkpoint file: finished shards are persisted here and \
     replayed instead of recomputed on a re-run (extending --trials reuses \
     full shards)."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"PATH" ~doc)

let campaign_report_arg =
  let doc =
    "Write the campaign report as JSON (the bench report schema, with only \
     the campaign object) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"PATH" ~doc)

let quiet_arg =
  let doc = "Suppress per-shard progress output on stderr." in
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc)

let chunk_arg =
  let doc =
    "Campaign shards per worker pipe round trip (0 = dynamic chunk sizing; 1 \
     disables chunking)."
  in
  Arg.(value & opt int 0 & info [ "chunk" ] ~doc)

let campaign_cmd benchmarks systems samplers trials seed shard max_reboots
    watchdog_scale ci_width resume jobs chunk report quiet telemetry =
  let collect parse = function
    | [] -> Ok None
    | names ->
        let rec go acc = function
          | [] -> Ok (Some (List.rev acc))
          | n :: rest -> (
              match parse n with
              | Ok v -> go (v :: acc) rest
              | Error e -> Error e)
        in
        go [] names
  in
  let* benchmarks =
    collect
      (fun n ->
        match Workloads.Suite.find n with
        | Some b -> Ok b
        | None -> Error ("unknown benchmark " ^ n))
      benchmarks
  in
  let* runtimes = collect (parse_system []) systems in
  let* samplers =
    collect
      (fun n ->
        match Faultinject.Campaign.sampler_of_string n with
        | Some s -> Ok s
        | None ->
            Error ("unknown sampler " ^ n ^ " (uniform|bursty|near-eviction)"))
      samplers
  in
  let* () = if trials > 0 then Ok () else Error "--trials must be positive" in
  let* () = if shard > 0 then Ok () else Error "--shard must be positive" in
  let d = Faultinject.Campaign.default_plan in
  let plan =
    {
      d with
      Faultinject.Campaign.p_benchmarks =
        (match benchmarks with
        | Some bs -> bs
        | None -> d.Faultinject.Campaign.p_benchmarks);
      p_runtimes =
        (match runtimes with
        | Some rs -> rs
        | None -> d.Faultinject.Campaign.p_runtimes);
      p_samplers =
        (match samplers with
        | Some ss -> ss
        | None -> d.Faultinject.Campaign.p_samplers);
      p_trials = trials;
      p_seed = seed;
      p_shard_trials = shard;
      p_max_reboots = max_reboots;
      p_watchdog_scale = watchdog_scale;
      p_ci_width = ci_width;
    }
  in
  let progress =
    if quiet then Observe.Progress.null else Observe.Progress.auto stderr
  in
  with_telemetry ~command:"campaign" telemetry
    ~fields:
      [
        ("seed", Observe.Json.Int seed);
        ("trials", Observe.Json.Int trials);
        ("jobs", Observe.Json.Int (resolve_jobs jobs));
        ( "plan_fingerprint",
          Observe.Json.String (Faultinject.Campaign.fingerprint plan) );
      ]
  @@ fun () ->
  match
    Faultinject.Campaign.run ~jobs:(resolve_jobs jobs)
      ?chunk:(if chunk > 0 then Some chunk else None)
      ~progress ?progress_file:resume plan
  with
  | Error e -> `Error (false, e)
  | Ok outcome ->
      print_string (Faultinject.Campaign.table outcome);
      (match report with
      | None -> ()
      | Some path ->
          let json =
            Observe.Json.Obj
              [
                ( "schema_version",
                  Observe.Json.Int Experiments.Bench_report.schema_version );
                ("campaign", Faultinject.Campaign.to_json outcome);
              ]
          in
          let oc = open_out path in
          output_string oc (Observe.Json.to_string_pretty json);
          close_out oc;
          Printf.printf "wrote %s\n" path);
      `Ok ()

let campaign_term =
  Term.(
    ret
      (const campaign_cmd $ campaign_benchmarks_arg $ campaign_systems_arg
     $ sampler_arg $ trials_arg $ seed_arg $ shard_arg
     $ campaign_max_reboots_arg $ watchdog_scale_arg $ ci_width_arg
     $ resume_arg $ jobs_arg $ chunk_arg $ campaign_report_arg $ quiet_arg
     $ telemetry_arg))

(* --- dse ---------------------------------------------------------------- *)

let dse_benchmarks_arg =
  let doc =
    "Benchmark in the exploration grid (repeatable; default the full suite)."
  in
  Arg.(value & opt_all string [] & info [ "benchmark"; "b" ] ~doc)

let dse_systems_arg =
  let doc =
    "Caching system axis: swapram or block (repeatable; default both)."
  in
  Arg.(value & opt_all string [] & info [ "system"; "s" ] ~doc)

let dse_budget_min_arg =
  let doc = "Smallest SRAM budget in bytes." in
  Arg.(value & opt int 512 & info [ "budget-min" ] ~doc)

let dse_budget_max_arg =
  let doc = "Largest SRAM budget in bytes." in
  Arg.(value & opt int 16384 & info [ "budget-max" ] ~doc)

let dse_budget_step_arg =
  let doc = "SRAM budget step in bytes." in
  Arg.(value & opt int 32 & info [ "budget-step" ] ~doc)

let dse_policy_arg =
  let doc =
    "Eviction-policy axis: lru, lfu or cost (repeatable; default all three)."
  in
  Arg.(value & opt_all string [] & info [ "policy" ] ~doc)

let dse_block_arg =
  let doc =
    "Block-size axis in bytes, 0 for the recorded slot size (repeatable; \
     default 0, 256 and 512; applies to line-granular traces only)."
  in
  Arg.(value & opt_all int [] & info [ "block" ] ~doc)

let dse_mhz_arg =
  let doc =
    "Clock-frequency axis in MHz: 8 or 24 (repeatable; default both)."
  in
  Arg.(value & opt_all int [] & info [ "mhz" ] ~doc)

let dse_trace_dir_arg =
  let doc =
    "Directory for recorded traces (created if missing; traces whose header \
     fingerprint matches are reused instead of re-recorded). Default: a \
     temporary directory removed on exit."
  in
  Arg.(value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR" ~doc)

let dse_resume_arg =
  let doc =
    "Persistent memo store: the sims a run computes are appended here once \
     the whole grid has been simulated, and a re-run only computes cells \
     missing from the store (a warm store computes 0)."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"PATH" ~doc)

let dse_report_arg =
  let doc =
    "Write the full DSE report (with the sims_computed, sims_cached and \
     sims_collapsed provenance counters) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"PATH" ~doc)

let dse_frontier_arg =
  let doc =
    "Write the deterministic (slim) DSE object to $(docv) — byte-identical \
     across serial, parallel and resumed runs."
  in
  Arg.(value & opt (some string) None & info [ "frontier" ] ~docv:"PATH" ~doc)

let dse_cmd benchmarks systems bmin bmax bstep policies blocks mhzs seed jobs
    trace_dir resume report frontier quiet telemetry =
  let collect parse = function
    | [] -> Ok None
    | names ->
        let rec go acc = function
          | [] -> Ok (Some (List.rev acc))
          | n :: rest -> (
              match parse n with
              | Ok v -> go (v :: acc) rest
              | Error e -> Error e)
        in
        go [] names
  in
  let* benchmarks =
    collect
      (fun n ->
        match Workloads.Suite.find n with
        | Some b -> Ok b
        | None -> Error ("unknown benchmark " ^ n))
      benchmarks
  in
  let* systems =
    collect
      (fun n ->
        if n = "swapram" || n = "block" then Ok n
        else Error ("unknown dse system " ^ n ^ " (swapram|block)"))
      systems
  in
  let* policies =
    collect
      (fun n ->
        match Replay.Engine.policy_of_string n with
        | Some p -> Ok p
        | None -> Error ("unknown policy " ^ n ^ " (lru|lfu|cost)"))
      policies
  in
  let* () =
    if bstep > 0 then Ok () else Error "--budget-step must be positive"
  in
  let budgets =
    let rec go acc b =
      if b > bmax then List.rev acc else go (b :: acc) (b + bstep)
    in
    go [] bmin
  in
  let d = Experiments.Dse.default_grid in
  let grid =
    {
      Experiments.Dse.g_budgets = budgets;
      g_policies =
        (match policies with
        | Some ps -> ps
        | None -> d.Experiments.Dse.g_policies);
      g_blocks =
        (match blocks with
        | [] -> d.Experiments.Dse.g_blocks
        | bs -> List.map (fun b -> if b = 0 then None else Some b) bs);
      g_frequencies =
        (match mhzs with [] -> d.Experiments.Dse.g_frequencies | ms -> ms);
    }
  in
  let* () = Experiments.Dse.validate_grid grid in
  let progress =
    if quiet then Observe.Progress.null else Observe.Progress.auto stderr
  in
  let jobs = resolve_jobs jobs in
  with_telemetry ~command:"dse" telemetry
    ~fields:
      [
        ("seed", Observe.Json.Int seed);
        ("jobs", Observe.Json.Int jobs);
        ("budgets", Observe.Json.Int (List.length grid.Experiments.Dse.g_budgets));
      ]
  @@ fun () ->
  Experiments.Dse.with_trace_dir ?dir:trace_dir @@ fun dir ->
  match
    Experiments.Dse.record_workloads ~seed ?benchmarks ?systems ~jobs ~progress
      ~dir ()
  with
  | Error e -> `Error (false, e)
  | Ok workloads -> (
      match
        Experiments.Dse.run ~jobs ~progress ?store:resume grid workloads
      with
      | Error e -> `Error (false, e)
      | Ok outcome ->
          let open Experiments.Dse in
          Printf.printf "workloads : %d\n" (List.length outcome.d_workloads);
          List.iter
            (fun f ->
              Printf.printf "  %-24s %6d points, %4d on frontier\n"
                f.f_workload f.f_points
                (List.length f.f_frontier))
            outcome.d_frontiers;
          Printf.printf
            "points    : %d (%d sims: %d computed, %d cached, %d collapsed)\n"
            outcome.d_points_total outcome.d_sims_total outcome.d_sims_computed
            outcome.d_sims_cached outcome.d_sims_collapsed;
          Printf.printf "global    : %d frontier points\n"
            (List.length outcome.d_global_frontier);
          let write path json =
            let oc = open_out path in
            output_string oc (Observe.Json.to_string_pretty json);
            output_char oc '\n';
            close_out oc;
            Printf.printf "wrote %s\n" path
          in
          (match report with
          | None -> ()
          | Some path ->
              write path
                (Observe.Json.Obj
                   [
                     ( "schema_version",
                       Observe.Json.Int Experiments.Bench_report.schema_version
                     );
                     ("dse", Experiments.Dse.json grid outcome);
                   ]));
          (match frontier with
          | None -> ()
          | Some path -> write path (Experiments.Dse.json ~slim:true grid outcome));
          `Ok ())

let dse_term =
  Term.(
    ret
      (const dse_cmd $ dse_benchmarks_arg $ dse_systems_arg
     $ dse_budget_min_arg $ dse_budget_max_arg $ dse_budget_step_arg
     $ dse_policy_arg $ dse_block_arg $ dse_mhz_arg $ seed_arg $ jobs_arg
     $ dse_trace_dir_arg $ dse_resume_arg $ dse_report_arg
     $ dse_frontier_arg $ quiet_arg $ telemetry_arg))

let run_term =
  Term.(
    ret
      (const run_cmd $ benchmark_arg $ file_arg $ system_arg $ placement_arg
     $ freq_arg $ seed_arg $ blacklist_arg $ engine_arg $ telemetry_arg))

let instrumented_arg =
  let doc = "Print the SwapRAM-instrumented program instead of plain output." in
  Arg.(value & flag & info [ "instrumented"; "i" ] ~doc)

let top_arg =
  let doc = "Show only the N hottest functions (0 = all)." in
  Arg.(value & opt int 0 & info [ "top" ] ~doc)

let folded_arg =
  let doc = "Emit caller-aggregated folded stacks (flame-graph input) instead of the table." in
  Arg.(value & flag & info [ "folded" ] ~doc)

let chrome_arg =
  let doc = "Also write a Chrome trace-event JSON file to $(docv)." in
  Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"PATH" ~doc)

let verify_arg =
  let doc =
    "Re-run the same configuration without observation and fail unless the \
     cycle and instruction totals match exactly."
  in
  Arg.(value & flag & info [ "verify" ] ~doc)

let profile_term =
  Term.(
    ret
      (const profile_cmd $ benchmark_arg $ file_arg $ system_arg
     $ placement_arg $ freq_arg $ seed_arg $ blacklist_arg $ engine_arg
     $ top_arg $ folded_arg $ chrome_arg $ verify_arg))

let window_arg =
  let doc = "Metrics window length in total (CPU + stall) cycles." in
  Arg.(value & opt int 65536 & info [ "window"; "w" ] ~doc)

let buckets_arg =
  let doc = "Address-histogram buckets per memory region." in
  Arg.(value & opt int 48 & info [ "buckets" ] ~doc)

let csv_arg =
  let doc = "Emit the per-window series as CSV instead of the text report." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let metrics_term =
  Term.(
    ret
      (const metrics_cmd $ benchmark_arg $ file_arg $ system_arg
     $ placement_arg $ freq_arg $ seed_arg $ blacklist_arg $ engine_arg
     $ window_arg $ buckets_arg $ csv_arg))

let old_report_arg =
  let doc = "Baseline report (e.g. bench/baseline.json)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD" ~doc)

let new_report_arg =
  let doc = "Candidate report to gate (e.g. bench/report.json)." in
  Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW" ~doc)

let threshold_arg =
  let doc =
    "Override every per-metric relative threshold with one value (e.g. 0.02 \
     = 2%)."
  in
  Arg.(value & opt (some float) None & info [ "threshold" ] ~doc)

let compare_term =
  Term.(
    ret (const compare_cmd $ old_report_arg $ new_report_arg $ threshold_arg))

let budget_arg =
  let doc = "Pinned-set byte budget (default: half the SRAM cache)." in
  Arg.(value & opt (some int) None & info [ "budget" ] ~doc)

let train_arg =
  let doc =
    "Run the observed training pass only and write the per-function profile \
     (JSON) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "train" ] ~docv:"PATH" ~doc)

let profile_path_arg =
  let doc =
    "Place a previously saved profile from $(docv) instead of training \
     in-process."
  in
  Arg.(value & opt (some file) None & info [ "profile" ] ~docv:"PATH" ~doc)

let gate_arg =
  let doc =
    "Exit nonzero unless the PGO build's total cycles are no worse than the \
     default build's (CI smoke gate)."
  in
  Arg.(value & flag & info [ "gate" ] ~doc)

let pgo_term =
  Term.(
    ret
      (const pgo_cmd $ benchmark_arg $ file_arg $ freq_arg $ seed_arg
     $ blacklist_arg $ engine_arg $ budget_arg $ train_arg $ profile_path_arg
     $ gate_arg $ telemetry_arg))

let record_term =
  Term.(
    ret
      (const record_cmd $ benchmark_arg $ file_arg $ system_arg $ placement_arg
     $ freq_arg $ seed_arg $ blacklist_arg $ trace_out_arg $ telemetry_arg))

let replay_term =
  Term.(
    ret
      (const replay_cmd $ trace_pos_arg $ replay_budget_arg $ policy_arg
     $ block_override_arg $ check_arg $ replay_freq_arg $ jobs_arg
     $ telemetry_arg))

(* Timeline: render a telemetry run ledger (written by --telemetry)
   as a Chrome trace-event file, a utilization summary, or CSV. *)

let ledger_pos_arg =
  let doc = "Telemetry run ledger (JSONL, written by --telemetry)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"LEDGER" ~doc)

let timeline_chrome_arg =
  let doc =
    "Write a Chrome trace-event JSON file to $(docv): one track per worker \
     PID plus a host track with spans and counters (load in \
     chrome://tracing or https://ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"PATH" ~doc)

let timeline_csv_arg =
  let doc = "Write the flattened span/task/counter table as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"PATH" ~doc)

let timeline_summary_arg =
  let doc =
    "Print the utilization/throughput summary (default when no exporter is \
     requested)."
  in
  Arg.(value & flag & info [ "summary" ] ~doc)

let timeline_cmd ledger chrome csv summary =
  match Observe.Telemetry.read_file ledger with
  | Error e -> `Error (false, e)
  | Ok records ->
      let exported = ref false in
      let write_to path contents what =
        let oc = open_out path in
        output_string oc contents;
        close_out oc;
        Printf.printf "wrote %s to %s\n" what path;
        exported := true
      in
      (match chrome with
      | Some path ->
          write_to path (Observe.Telemetry.chrome records) "Chrome timeline"
      | None -> ());
      (match csv with
      | Some path -> write_to path (Observe.Telemetry.csv records) "CSV table"
      | None -> ());
      if summary || not !exported then
        print_string (Observe.Telemetry.summary records);
      `Ok ()

let timeline_term =
  Term.(
    ret
      (const timeline_cmd $ ledger_pos_arg $ timeline_chrome_arg
     $ timeline_csv_arg $ timeline_summary_arg))

(* Bench: the paper's artifacts at seed 1, then the full JSON report
   (--report) and the slim committed baseline (--baseline). --jobs and
   --engine reach every artifact through the Sweep/Toolchain defaults;
   neither can change a simulated value. *)

let bench_seed = 1

let bench_artifacts =
  let open Experiments in
  let seed = bench_seed in
  let at_both_frequencies render compute () =
    print_string (render (compute Platform.Mhz24));
    print_newline ();
    print_string (render (compute Platform.Mhz8))
  in
  [
    ("fig1", fun () -> print_string (Fig1.render (Fig1.compute ~seed ())));
    ("tab1", fun () -> print_string (Tab1.render (Tab1.compute ~seed ())));
    ("fig7", fun () -> print_string (Fig7.render (Fig7.compute ~seed ())));
    ("tab2", fun () -> print_string (Tab2.render (Tab2.compute ~seed ())));
    ("fig8", fun () -> print_string (Fig8.render (Fig8.compute ~seed ())));
    ( "fig9",
      at_both_frequencies Fig9.render (fun frequency ->
          Fig9.compute ~seed ~frequency ()) );
    ( "fig10",
      at_both_frequencies Fig10.render (fun frequency ->
          Fig10.compute ~seed ~frequency ()) );
    ("ablation", fun () -> print_string (Ablation.(render (compute ~seed ()))));
    ("tabpgo", fun () -> print_string (Tab_pgo.(render (compute ~seed ()))));
  ]

let bench_artifact_arg =
  let names = List.map (fun (n, _) -> (n, n)) bench_artifacts in
  let doc =
    Printf.sprintf
      "Artifact to regenerate: %s. With no $(docv) and neither --report nor \
       --baseline, every artifact runs."
      (Arg.doc_alts_enum names)
  in
  Arg.(value & pos_all (enum names) [] & info [] ~docv:"ARTIFACT" ~doc)

let bench_path_arg name ~default ~doc =
  Arg.(
    value
    & opt ~vopt:(Some default) (some string) None
    & info [ name ] ~docv:"PATH" ~doc)

let bench_campaign_arg =
  let doc =
    "Embed a Monte-Carlo fault-injection campaign (default plan, $(docv) \
     trials per cell) in the --report JSON."
  in
  Arg.(
    value
    & opt ~vopt:(Some 200) (some int) None
    & info [ "campaign" ] ~docv:"TRIALS" ~doc)

let bench_report ~jobs ~campaign path =
  let campaign =
    match campaign with
    | None -> Ok None
    | Some p_trials ->
        Faultinject.Campaign.(
          run ~jobs ~progress:(Observe.Progress.auto stderr)
            { default_plan with p_trials }
          |> Result.map (fun o -> Some (to_json o)))
  in
  match campaign with
  | Error e -> Error ("campaign failed: " ^ e)
  | Ok campaign ->
      Experiments.Bench_report.write ~seed:bench_seed ?campaign path;
      let ms = Experiments.Sweep.memo_stats () in
      Printf.printf "sweep memo   : %d hit, %d computed\n"
        ms.Experiments.Sweep.hits ms.Experiments.Sweep.misses;
      Printf.printf "wrote %s (schema v%d%s)\n" path
        Experiments.Bench_report.schema_version
        (if campaign <> None then ", with campaign" else "");
      Ok ()

let bench_cmd artifacts report baseline campaign jobs engine telemetry =
  let* engine = parse_engine_only "bench" engine in
  match (campaign, report) with
  | Some n, _ when n <= 0 -> `Error (true, "--campaign must be positive")
  | Some _, None -> `Error (true, "--campaign requires --report")
  | _ ->
      let jobs = resolve_jobs jobs in
      Experiments.Sweep.set_default_jobs jobs;
      Experiments.Toolchain.set_default_engine engine;
      Experiments.Sweep.set_default_progress (Observe.Progress.auto stderr);
      let artifacts =
        if artifacts = [] && report = None && baseline = None then
          List.map fst bench_artifacts
        else artifacts
      in
      with_telemetry ~command:"bench" telemetry
        ~fields:Observe.Json.[ ("seed", Int bench_seed); ("jobs", Int jobs) ]
      @@ fun () ->
      let step name run =
        let r = Observe.Telemetry.with_span ~cat:"bench" name run in
        print_newline ();
        r
      in
      List.iter (fun a -> step a (List.assoc a bench_artifacts)) artifacts;
      let* () =
        match report with
        | None -> Ok ()
        | Some path ->
            step "report" (fun () -> bench_report ~jobs ~campaign path)
      in
      Option.iter
        (fun path ->
          step "baseline" (fun () ->
              Experiments.Bench_report.write ~seed:bench_seed ~slim:true path;
              Printf.printf "wrote %s (schema v%d, slim)\n" path
                Experiments.Bench_report.schema_version))
        baseline;
      `Ok ()

let bench_term =
  let report_arg =
    bench_path_arg "report" ~default:"bench/report.json"
      ~doc:"After the artifacts, write the full JSON report to $(docv)."
  in
  let baseline_arg =
    bench_path_arg "baseline" ~default:"bench/baseline.json"
      ~doc:
        "Last, write the slim report, the committed regression baseline, to \
         $(docv)."
  in
  Term.(
    ret
      (const bench_cmd $ bench_artifact_arg $ report_arg $ baseline_arg
     $ bench_campaign_arg $ jobs_arg $ engine_arg $ telemetry_arg))

let asm_term =
  Term.(ret (const asm_cmd $ benchmark_arg $ file_arg $ seed_arg $ instrumented_arg))

let disasm_term =
  Term.(
    ret (const disasm_cmd $ benchmark_arg $ file_arg $ seed_arg $ instrumented_arg))

let cmds =
  [
    Cmd.v (Cmd.info "run" ~doc:"Build and simulate a program") run_term;
    Cmd.v
      (Cmd.info "profile"
         ~doc:
           "Simulate with the cycle-attribution profiler attached and print \
            per-function cycle/energy attribution")
      profile_term;
    Cmd.v
      (Cmd.info "metrics"
         ~doc:
           "Simulate with the windowed cache-dynamics sampler attached and \
            print the time series, FRAM/SRAM address heatmaps and the \
            miss-ratio curve")
      metrics_term;
    Cmd.v
      (Cmd.info "pgo"
         ~doc:
           "Profile-guided placement: train under the default SwapRAM \
            pipeline, rebuild with the hot set pinned in SRAM, and measure \
            the improvement")
      pgo_term;
    Cmd.v
      (Cmd.info "compare"
         ~doc:
           "Perf-regression gate: compare two bench reports under per-metric \
            thresholds; nonzero exit on regression")
      compare_term;
    Cmd.v
      (Cmd.info "record"
         ~doc:
           "Simulate once and capture the counted event stream into a \
            compact binary trace for the replay command")
      record_term;
    Cmd.v
      (Cmd.info "replay"
         ~doc:
           "Replay a recorded trace through cache models (budgets x \
            replacement policies) without re-executing the CPU; --check \
            verifies bit-for-bit agreement with a fresh execution")
      replay_term;
    Cmd.v (Cmd.info "asm" ~doc:"Dump generated (optionally instrumented) assembly") asm_term;
    Cmd.v
      (Cmd.info "disasm"
         ~doc:"Disassemble the assembled image (objdump-style listing)")
      disasm_term;
    Cmd.v
      (Cmd.info "trace" ~doc:"Print an execution trace (mspdebug-style)")
      Term.(
        ret
          (const trace_cmd $ benchmark_arg $ file_arg $ system_arg $ seed_arg
         $ limit_arg));
    Cmd.v
      (Cmd.info "faultinject"
         ~doc:
           "Inject power failures and verify crash consistency against an \
            uninterrupted golden run")
      Term.(
        ret
          (const faultinject_cmd $ benchmark_arg $ file_arg $ system_arg
         $ placement_arg $ freq_arg $ seed_arg $ blacklist_arg $ engine_arg
         $ jobs_arg $ mode_arg $ period_arg $ crash_seed_arg
         $ max_reboots_arg $ watchdog_cycles_arg $ telemetry_arg));
    Cmd.v
      (Cmd.info "campaign"
         ~doc:
           "Monte-Carlo fault-injection campaign: randomized power-failure \
            schedules against a grid of benchmarks x runtimes x samplers, \
            with Wilson confidence intervals, optional early stopping, \
            self-healing parallel workers and resumable progress \
            checkpoints")
      campaign_term;
    Cmd.v
      (Cmd.info "dse"
         ~doc:
           "Design-space exploration: replay recorded traces over a grid of \
            SRAM budget x eviction policy x block size x frequency points \
            and compute exact Pareto frontiers (cycles, energy, SRAM, NVM \
            traffic), with batched replay, one parallel task per (trace, block) \
            group and a persistent memo store for incremental re-runs")
      dse_term;
    Cmd.v
      (Cmd.info "bench"
         ~doc:
           "Regenerate the paper's tables and figures at seed 1, and write \
            the JSON report (--report) and the slim regression baseline \
            (--baseline)")
      bench_term;
    Cmd.v
      (Cmd.info "timeline"
         ~doc:
           "Render a telemetry run ledger (--telemetry) as a Chrome \
            trace-event worker timeline, a utilization/throughput summary, \
            or CSV")
      timeline_term;
  ]

let () =
  let info =
    Cmd.info "swapram_cli"
      ~doc:"SwapRAM software instruction cache for NVRAM microcontrollers"
  in
  exit (Cmd.eval (Cmd.group info cmds))
