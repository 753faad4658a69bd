(* The single-configuration commands: run (and its engine check),
   profile, metrics and pgo simulate one Toolchain.config; asm, disasm
   and trace list one program. *)

open Common
module Platform = Msp430.Platform
module Cpu = Msp430.Cpu

(* Toolchain.run (or Toolchain.record_prepared into [trace]), staged so
   that the CPU's engine counters can be read once the run ends. *)
let run_counting ?trace config =
  match Toolchain.prepare config with
  | Error msg -> (Toolchain.Did_not_fit msg, None)
  | Ok p ->
      let cpu = p.p_system.Platform.cpu in
      let outcome =
        match trace with
        | Some trace -> Toolchain.record_prepared ~trace p
        | None -> (
            Toolchain.boot p;
            match Cpu.run ~fuel:config.Toolchain.fuel cpu with
            | Cpu.Halted -> Toolchain.Completed (Toolchain.collect p)
            | o -> Toolchain.Crashed o)
      in
      (outcome, Some (Cpu.engine_counters cpu))

(* The configuration recorded under [engine] to a temporary file: the
   file's bytes on a clean halt, and the engine counters. *)
let record_counting config engine =
  let trace = Filename.temp_file "engine-check-" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove trace with Sys_error _ -> ())
    (fun () ->
      match run_counting ~trace { config with Toolchain.engine } with
      | Toolchain.Completed _, Some k -> Some (read_file trace, k)
      | _ -> None)

let print_counters (k : Cpu.counters) =
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
   superblock engine did, unobserved and observed. Host throughput is
   perf's msp430.minstr_per_s. *)
let check_engines config =
  let name = config.Toolchain.benchmark.Workloads.Bench_def.name in
  match
    ( Toolchain.run { config with Toolchain.engine = Cpu.Reference },
      run_counting { config with Toolchain.engine = Cpu.Superblock } )
  with
  | Toolchain.Completed r, (Toolchain.Completed s, Some k) -> (
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
            Printf.sprintf "engines disagree on %s: %s" name
              (String.concat ", " mismatches) )
      else
        match
          ( record_counting config Cpu.Reference,
            record_counting config Cpu.Superblock )
        with
        | None, _ | _, None ->
            `Error (false, "engine check: a recorded run did not complete")
        | Some (ref_trace, _), Some (sb_trace, _)
          when not (String.equal ref_trace sb_trace) ->
            `Error
              ( false,
                Printf.sprintf
                  "engines record different traces of %s (%d vs %d bytes)"
                  name (String.length ref_trace) (String.length sb_trace) )
        | Some _, Some (sb_trace, observed) ->
            print_benchmark config;
            Printf.printf "cycles       : %d (both engines)\n"
              (Trace.total_cycles r.stats);
            Printf.printf "instructions : %d (both engines)\n"
              r.stats.instructions;
            Printf.printf "energy       : %.1f uJ (both engines)\n"
              (r.energy.energy_nj /. 1000.0);
            Printf.printf "check        : OK — simulated results identical\n";
            print_counters k;
            Printf.printf
              "recording    : OK — %d bytes, identical under both engines\n"
              (String.length sb_trace);
            Printf.printf "observed run :\n";
            print_counters observed;
            `Ok ())
  | _ ->
      `Error
        ( false,
          "engine check needs a configuration that runs to a clean halt \
           under both engines" )

(* [engine] is [None] for --engine check. *)
let run engine config telemetry =
  with_telemetry ~command:"run" ~fields:(config_fields config) telemetry
  @@ fun () ->
  match engine with
  | None -> check_engines config
  | Some engine ->
      let* r = completed (Toolchain.run { config with Toolchain.engine }) in
      let stats = r.stats in
      print_config config;
      Printf.printf "binary       : %d B code, %d B data\n" r.sizes.code_bytes
        r.sizes.data_bytes;
      print_cycles stats;
      Printf.printf "time         : %.3f ms\n" (r.energy.time_s *. 1000.0);
      Printf.printf "energy       : %.1f uJ\n" (r.energy.energy_nj /. 1000.0);
      Printf.printf "FRAM accesses: %d (%d ifetch, %d data reads, %d writes)\n"
        (Trace.fram_accesses stats) stats.fram_ifetch stats.fram_data_reads
        stats.fram_writes;
      Printf.printf "SRAM accesses: %d\n" (Trace.sram_accesses stats);
      Printf.printf "instructions : %d (%.1f%% from SRAM)\n" stats.instructions
        (100.0 *. Trace.instr_fraction stats Trace.App_sram);
      Option.iter
        (fun (s : Swapram.Runtime.stats) ->
          Printf.printf
            "swapram      : %d misses, %d evictions, %d aborts, %d words \
             copied\n"
            s.misses s.evictions (s.aborts + s.too_large) s.words_copied)
        r.swapram_stats;
      Option.iter
        (fun (s : Blockcache.Runtime.stats) ->
          Printf.printf
            "block cache  : %d misses, %d loads, %d chains, %d flushes\n"
            s.misses s.block_loads s.chains s.flushes)
        r.block_stats;
      Printf.printf "uart         : %s\n"
        (String.concat "\\n" (String.split_on_char '\n' r.uart));
      `Ok ()

(* Profile: run with the observability stack attached and print the
   per-function cycle/energy attribution. [verify] re-runs the same
   configuration unobserved and checks the totals match exactly —
   tracing must perturb nothing. *)
let profile config top folded chrome verify =
  let* r =
    completed (Toolchain.run ~observe:Toolchain.default_observe config)
  in
  let obs = Option.get r.observation in
  let profiler = obs.o_profiler and stats = r.stats in
  print_config config;
  print_cycles stats;
  Printf.printf "runtime share: %.1f%% of cycles in the caching runtime\n\n"
    (100.0
    *. (Observe.Profiler.source_share profiler Trace.Handler
       +. Observe.Profiler.source_share profiler Trace.Memcpy));
  if folded then
    List.iter print_endline (Observe.Profiler.folded_lines profiler)
  else
    print_string
      (Observe.Profiler.render ~top
         ~params:(Platform.energy_params config.frequency)
         profiler);
  Option.iter
    (fun path ->
      write_file path
        (Observe.Chrome.export ~symtab:obs.o_symtab obs.o_events);
      Printf.printf "\nwrote Chrome trace to %s\n" path)
    chrome;
  if not verify then `Ok ()
  else
    match Toolchain.run config with
    | Toolchain.Completed plain ->
        let ps = plain.stats in
        let totals = Observe.Profiler.totals profiler in
        if
          Trace.total_cycles ps = Trace.total_cycles stats
          && ps.instructions = stats.instructions
          && Trace.total_cycles ps = Observe.Profiler.cycles_of totals
          && ps.instructions = totals.instrs
          && plain.uart = r.uart
        then begin
          Printf.printf
            "\nverify       : OK — untraced run identical (%d cycles, %d \
             instructions)\n"
            (Trace.total_cycles ps) ps.instructions;
          `Ok ()
        end
        else
          `Error
            ( false,
              Printf.sprintf
                "tracing perturbed the run: traced %d cycles / %d instrs, \
                 untraced %d cycles / %d instrs, attributed %d cycles"
                (Trace.total_cycles stats) stats.instructions
                (Trace.total_cycles ps) ps.instructions
                (Observe.Profiler.cycles_of totals) )
    | _ -> `Error (false, "verification rerun did not complete")

(* Metrics: run with the windowed time-series sampler attached and
   print the cache-dynamics series, address heatmaps and miss-ratio
   curve. *)
let metrics config metrics_window metrics_buckets csv =
  let observe =
    { Toolchain.metrics_window; metrics_buckets }
  in
  let* r = completed (Toolchain.run ~observe config) in
  match r.observation with
  | Some { o_metrics = Some m; _ } ->
      if csv then print_string (Observe.Metrics.render_csv m)
      else begin
        print_config config;
        Printf.printf "window       : %d cycles\n\n" metrics_window;
        print_string (Observe.Metrics.render_series m);
        print_newline ();
        print_string (Observe.Metrics.render_heatmaps m);
        print_newline ();
        print_string (Observe.Metrics.render_mrc m)
      end;
      `Ok ()
  | Some _ | None -> `Error (false, "metrics sampler was not attached")

(* Profile-guided placement: train -> rebuild -> measure.

     swapram_cli pgo -b rc4                  # full loop, print the delta
     swapram_cli pgo -b rc4 --train p.json   # training run only, save profile
     swapram_cli pgo -b rc4 --profile p.json # place a saved profile
     swapram_cli pgo -b rc4 --gate           # nonzero exit if PGO is slower
*)
let pgo config budget train profile gate telemetry =
  with_telemetry ~command:"pgo" ~fields:(config_fields config) telemetry
  @@ fun () ->
  match train with
  | Some path ->
      let* p, _ = Toolchain.train_pgo config in
      write_file path (Swapram.Pgo.profile_to_string p);
      Printf.printf "wrote profile for %s (%d functions) to %s\n"
        p.pr_benchmark (List.length p.pr_funcs) path;
      `Ok ()
  | None ->
      let* r = Toolchain.run_pgo ?budget ?profile config in
      let* m = completed ~what:"PGO " r.pg_measured in
      let placement = r.pg_placement and train = r.pg_train in
      let tc = Trace.total_cycles train.stats in
      let mc = Trace.total_cycles m.stats in
      let te = train.energy.energy_nj and me = m.energy.energy_nj in
      let delta o n = if o = 0.0 then 0.0 else 100.0 *. (n -. o) /. o in
      let names = function [] -> "(none)" | l -> String.concat " " l in
      print_benchmark config;
      Printf.printf "pinned       : %s\n" (names placement.pl_pinned);
      Printf.printf "fram-resident: %s\n" (names placement.pl_fram_resident);
      Printf.printf "budget       : %d B pinned budget\n" placement.pl_budget;
      Printf.printf "cycles       : %d default -> %d pgo (%+.2f%%)\n" tc mc
        (delta (float_of_int tc) (float_of_int mc));
      Printf.printf "energy       : %.1f uJ default -> %.1f uJ pgo (%+.2f%%)\n"
        (te /. 1000.0) (me /. 1000.0) (delta te me);
      (match (train.swapram_stats, m.swapram_stats) with
      | Some d, Some p ->
          Printf.printf
            "misses       : %d default -> %d pgo (%d pinned copies)\n"
            d.misses p.misses p.pins
      | _ -> ());
      if gate && mc > tc then
        `Error
          ( false,
            Printf.sprintf "PGO gate failed: %d cycles > %d default cycles" mc
              tc )
      else `Ok ()

let program (b : Workloads.Bench_def.t) seed =
  Minic.Driver.program_of_source (b.source seed)

let asm b seed instrumented =
  let program = program b seed in
  Format.printf "%a@." Masm.Ast.pp_program
    (if instrumented then (Swapram.Pipeline.build program).program
     else program);
  `Ok ()

(* objdump-style listing of the assembled image *)
let disasm b seed instrumented =
  let program = program b seed in
  let image =
    if instrumented then (Swapram.Pipeline.build program).image
    else Masm.Assembler.assemble program
  in
  let reverse = Hashtbl.create 97 in
  Hashtbl.iter
    (fun name addr ->
      if not (Hashtbl.mem reverse addr) then Hashtbl.replace reverse addr name)
    image.symbols;
  List.iter
    (fun (addr, instr) ->
      Option.iter
        (Printf.printf "\n%04x <%s>:\n" addr)
        (Hashtbl.find_opt reverse addr);
      Printf.printf "  %04x:  %s\n" addr (Msp430.Isa.to_string instr))
    image.instructions;
  `Ok ()

(* Execution trace: run under a tracer and print the first [limit]
   decoded instructions with their addresses, mspdebug-style. *)
let trace b caching seed limit =
  let program = program b seed in
  let system = Platform.create Platform.Mhz24 in
  let entry =
    match caching with
    | Toolchain.Swapram_cache options ->
        let built = Swapram.Pipeline.build ~options program in
        ignore (Swapram.Pipeline.install built system);
        Masm.Assembler.lookup built.image Minic.Driver.entry_name
    | _ ->
        let image = Masm.Assembler.assemble program in
        Masm.Assembler.load image system.memory;
        Masm.Assembler.lookup image Minic.Driver.entry_name
  in
  let cpu = system.cpu in
  Cpu.set_reg cpu Msp430.Isa.sp (Platform.fram_base + Platform.fram_size);
  Cpu.set_reg cpu Msp430.Isa.pc entry;
  let remaining = ref limit in
  Cpu.set_tracer cpu
    (Some
       (fun ~pc instr ->
         if !remaining > 0 then begin
           decr remaining;
           Printf.printf "%06d  %04x:  %s\n" (limit - !remaining) pc
             (Msp430.Isa.to_string instr)
         end));
  while !remaining > 0 && not (Cpu.halted cpu) do
    Cpu.step cpu
  done;
  `Ok ()
