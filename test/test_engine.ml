(* Engine equivalence: the superblock execution engine must be
   indistinguishable from the reference interpreter in every simulated
   observable — cycle counts, energy, UART output, runtime counters,
   crash-consistency digests — across the full benchmark suite, random
   programs, self-modifying code, power-failure reboots and observed
   runs. Also covers the parallel experiment driver: a sharded sweep
   must merge to exactly the serial result, modulo host wall-clock. *)

module Platform = Msp430.Platform
module Cpu = Msp430.Cpu
module Memory = Msp430.Memory
module Isa = Msp430.Isa
module Trace = Msp430.Trace
module T = Experiments.Toolchain
module Sweep = Experiments.Sweep
module Json = Observe.Json
module FI = Faultinject.Injector
module FS = Faultinject.Schedule

(* Everything simulated a completed run exposes; host timing and the
   observation attachment (compared separately) are excluded. The
   observer closure is blanked so the counters compare structurally
   even on observed runs. *)
let stats_sig (s : Trace.t) = { s with Trace.observer = None }

let result_sig (r : T.result) =
  ( stats_sig r.T.stats,
    r.T.energy,
    r.T.uart,
    r.T.return_value,
    r.T.swapram_stats,
    r.T.block_stats )

let outcome_sig = function
  | T.Completed r -> `Completed (result_sig r)
  | T.Crashed o -> `Crashed o
  | T.Did_not_fit msg -> `Did_not_fit msg

let run_both config =
  ( T.run { config with T.engine = Cpu.Reference },
    T.run { config with T.engine = Cpu.Superblock } )

let check_outcomes what a b =
  (match (a, b) with
  | T.Completed r, T.Completed s ->
      Alcotest.(check int)
        (what ^ ": cycles")
        (Trace.total_cycles r.T.stats)
        (Trace.total_cycles s.T.stats);
      Alcotest.(check int)
        (what ^ ": instructions") r.T.stats.Trace.instructions
        s.T.stats.Trace.instructions;
      Alcotest.(check string) (what ^ ": uart") r.T.uart s.T.uart;
      Alcotest.(check int) (what ^ ": return") r.T.return_value s.T.return_value
  | _ -> ());
  Alcotest.(check bool)
    (what ^ ": all simulated observables") true
    (outcome_sig a = outcome_sig b)

(* --- All nine benchmarks, all three systems ---------------------------- *)

let caching_of = function
  | `Baseline -> T.Baseline
  | `Swapram -> T.Swapram_cache Swapram.Config.default_options
  | `Block -> T.Block_cache Blockcache.Config.default_options

let benchmark_differential b sys () =
  let config = { (T.default_config b) with T.caching = caching_of sys } in
  let r, s = run_both config in
  check_outcomes b.Workloads.Bench_def.name r s

let suite_checks =
  List.concat_map
    (fun b ->
      List.map
        (fun (name, sys) ->
          Alcotest.test_case
            (Printf.sprintf "engines agree: %s/%s" b.Workloads.Bench_def.name
               name)
            `Slow
            (benchmark_differential b sys))
        [ ("baseline", `Baseline); ("swapram", `Swapram); ("block", `Block) ])
    Workloads.Suite.all

(* --- Random programs --------------------------------------------------- *)

let bench_of_source source =
  {
    Workloads.Bench_def.name = "qcheck";
    short = "QCK";
    source = (fun _ -> source);
    fits_data_in_sram = false;
  }

let prop_engines_agree_random =
  QCheck2.Test.make ~count:30 ~name:"engines agree on random programs"
    ~print:(fun s -> s)
    Test_differential.gen_program
    (fun source ->
      let config = T.default_config (bench_of_source source) in
      (* a small SwapRAM cache forces eviction and code movement under
         the superblock cache's feet *)
      let small =
        { Swapram.Config.default_options with Swapram.Config.cache_size = 512 }
      in
      List.for_all
        (fun caching ->
          let r, s = run_both { config with T.caching } in
          outcome_sig r = outcome_sig s)
        [ T.Baseline; T.Swapram_cache small ])

(* --- Self-modifying code ----------------------------------------------- *)

(* The same patch-in-place loop the decode-cache test runs (a MOV
   rewrites an instruction the superblock cache has already recorded);
   both engines must agree on every counter, and on the architectural
   effect (r8 = 1 + 2). *)
let self_modifying_program =
  let open Masm.Build in
  ( [
      clr (dreg r7);
      clr (dreg r8);
      label "loop";
      label "patch";
      mov (imm 1) (dreg r12);
      add (reg r12) (dreg r8);
      mov (abs "proto") (dabs "patch");
      inc_ (dreg r7);
      cmp (imm 2) (dreg r7);
      jne "loop";
      mov (imm 1) (dabsn Memory.halt_addr);
    ],
    [ ("proto", [ mov (imm 2) (dreg r12) ]) ] )

let run_masm ~engine (stmts, data) =
  let program =
    [ Masm.Ast.item "main" stmts ]
    @ List.map
        (fun (name, ss) -> Masm.Ast.item ~section:Masm.Ast.Data name ss)
        data
  in
  let image = Masm.Assembler.assemble program in
  let system = Platform.create Platform.Mhz24 in
  Cpu.set_engine system.Platform.cpu engine;
  Masm.Assembler.load image system.Platform.memory;
  Cpu.set_reg system.Platform.cpu Isa.sp 0x3000;
  Cpu.set_reg system.Platform.cpu Isa.pc (Masm.Assembler.lookup image "main");
  (match Cpu.run ~fuel:100_000 system.Platform.cpu with
  | Cpu.Halted -> ()
  | o -> Alcotest.fail ("program did not halt: " ^ Cpu.outcome_name o));
  ( Cpu.stats system.Platform.cpu,
    Cpu.reg system.Platform.cpu 8,
    Memory.uart_output system.Platform.memory )

let self_modifying_differential () =
  let ref_stats, ref_r8, ref_uart =
    run_masm ~engine:Cpu.Reference self_modifying_program
  in
  let sb_stats, sb_r8, sb_uart =
    run_masm ~engine:Cpu.Superblock self_modifying_program
  in
  Alcotest.(check int) "r8 sees the patched instruction" 3 ref_r8;
  Alcotest.(check int) "r8 agrees" ref_r8 sb_r8;
  Alcotest.(check string) "uart agrees" ref_uart sb_uart;
  Alcotest.(check bool) "stats agree" true (ref_stats = sb_stats)

(* --- Power-failure injection ------------------------------------------- *)

(* Outages land mid-superblock; the batched counters must flush to the
   exact per-instruction state the reference interpreter would have,
   or reboot counts and oracle digests drift. *)
let crash_differential () =
  let config =
    {
      (T.default_config Workloads.Suite.journal) with
      T.caching = T.Swapram_cache Swapram.Config.default_options;
    }
  in
  let schedules = [ FS.Periodic 150_000; FS.adversarial ] in
  let run engine = FI.sweep { config with T.engine } schedules in
  match (run Cpu.Reference, run Cpu.Superblock) with
  | Ok a, Ok b ->
      List.iter2
        (fun (x : FI.report) (y : FI.report) ->
          let what = x.FI.r_label in
          Alcotest.(check string)
            (what ^ ": verdict")
            (FI.verdict_name x.FI.r_verdict)
            (FI.verdict_name y.FI.r_verdict);
          Alcotest.(check int) (what ^ ": reboots") x.FI.r_reboots y.FI.r_reboots;
          Alcotest.(check int)
            (what ^ ": torn reboots") x.FI.r_torn_reboots y.FI.r_torn_reboots;
          Alcotest.(check int)
            (what ^ ": instructions") x.FI.r_instructions y.FI.r_instructions;
          Alcotest.(check int) (what ^ ": misses") x.FI.r_misses y.FI.r_misses;
          Alcotest.(check string) (what ^ ": uart") x.FI.r_uart y.FI.r_uart;
          Alcotest.(check bool)
            (what ^ ": golden capture") true
            (x.FI.r_golden = y.FI.r_golden))
        a b
  | Error msg, _ | _, Error msg -> Alcotest.fail ("golden run failed: " ^ msg)

(* --- Observed runs ----------------------------------------------------- *)

(* Observation forces the reference step loop, so an observed run
   under either engine setting must be identical — including the
   retained trace-event sequence, compared via the Chrome export. *)
let observed_differential () =
  let config =
    {
      (T.default_config Workloads.Suite.crc) with
      T.caching = T.Swapram_cache Swapram.Config.default_options;
    }
  in
  let observed engine =
    match T.run ~observe:T.default_observe { config with T.engine } with
    | T.Completed r -> r
    | o -> Alcotest.fail ("observed run did not complete: " ^
                          (match o with
                           | T.Crashed c -> Cpu.outcome_name c
                           | T.Did_not_fit m -> m
                           | T.Completed _ -> assert false))
  in
  let r = observed Cpu.Reference and s = observed Cpu.Superblock in
  Alcotest.(check bool) "simulated observables" true
    (result_sig r = result_sig s);
  let events (x : T.result) =
    let obs = Option.get x.T.observation in
    match obs.T.o_events with
    | Some e -> Observe.Chrome.export ~symtab:obs.T.o_symtab e
    | None -> Alcotest.fail "event ring was not attached"
  in
  Alcotest.(check string) "trace-event sequence" (events r) (events s)

(* --- Parallel driver --------------------------------------------------- *)

let entry_sig (e : Sweep.entry) =
  ( e.Sweep.benchmark.Workloads.Bench_def.name,
    result_sig e.Sweep.baseline,
    outcome_sig e.Sweep.swapram,
    outcome_sig e.Sweep.block )

let parallel_sweep_matches_serial () =
  let benchmarks = Workloads.Suite.[ crc; bitcount ] in
  let run jobs =
    Sweep.clear_cache ();
    Sweep.compute ~benchmarks ~jobs ~frequency:Platform.Mhz24 ()
  in
  let serial = run 1 and sharded = run 3 in
  Alcotest.(check bool)
    "sharded sweep merges to the serial result" true
    (List.map entry_sig serial = List.map entry_sig sharded)

(* The full report path: the report carries no host wall-clock, so
   serial and sharded renderings must be byte-identical as they are. *)
let parallel_report_matches_serial () =
  let benchmarks = [ Workloads.Suite.crc ] in
  let render jobs =
    Sweep.clear_cache ();
    Json.to_string_pretty
      (Experiments.Bench_report.compute ~benchmarks ~jobs ())
  in
  Alcotest.(check string) "sharded full report identical" (render 1) (render 2)

(* No key of a full report names a host wall-clock measurement. *)
let report_has_no_wall_clock () =
  let report =
    Experiments.Bench_report.compute ~benchmarks:[ Workloads.Suite.crc ] ()
  in
  let rec keys = function
    | Json.Obj kvs -> List.concat_map (fun (k, v) -> k :: keys v) kvs
    | Json.List l -> List.concat_map keys l
    | _ -> []
  in
  let present = keys report in
  Alcotest.(check bool) "report has replay and dse objects" true
    (List.mem "replay" present && List.mem "dse" present);
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " absent") false (List.mem k present))
    [
      "host"; "host_seconds"; "record_s"; "exec_s"; "load_s"; "sim_s";
      "speedup"; "speedup_geomean"; "speedup_min"; "eval_s"; "points_per_s";
    ]

let worker_failure_surfaces () =
  match
    Experiments.Parallel.map ~jobs:2
      (fun n -> if n = 2 then failwith "boom" else n)
      [ 0; 1; 2; 3 ]
  with
  | _ -> Alcotest.fail "expected Worker_failed"
  | exception Experiments.Parallel.Worker_failed msg ->
      Alcotest.(check bool) "carries the child's error" true
        (String.length msg > 0)

let parallel_map_orders_results () =
  let xs = List.init 23 (fun i -> i) in
  let doubled = Experiments.Parallel.map ~jobs:4 (fun n -> 2 * n) xs in
  Alcotest.(check (list int)) "input order" (List.map (fun n -> 2 * n) xs)
    doubled

(* A worker that dies once (marker-file pattern: the first worker to
   pick up task 2 exits, a re-execution finds the marker) fails the
   strict default map and is healed by a one-retry budget. *)
let worker_death_heals_with_retries () =
  let marker = Filename.temp_file "pool_chaos" ".marker" in
  let disarm () = if Sys.file_exists marker then Sys.remove marker in
  let f n =
    if
      n = 2
      && Experiments.Parallel.in_worker ()
      && not (Sys.file_exists marker)
    then begin
      close_out (open_out marker);
      Unix._exit 17
    end;
    n * n
  in
  let xs = [ 0; 1; 2; 3 ] in
  disarm ();
  (match Experiments.Parallel.map ~jobs:2 f xs with
  | _ -> Alcotest.fail "expected Worker_failed at the default retries"
  | exception Experiments.Parallel.Worker_failed _ -> ());
  disarm ();
  let healed = Experiments.Parallel.map ~jobs:2 ~retries:1 f xs in
  disarm ();
  Alcotest.(check (list int)) "healed to List.map" (List.map f xs) healed

let suite =
  suite_checks
  @ [
      QCheck_alcotest.to_alcotest prop_engines_agree_random;
      Alcotest.test_case "engines agree: self-modifying code" `Quick
        self_modifying_differential;
      Alcotest.test_case "engines agree: power-failure reboots" `Slow
        crash_differential;
      Alcotest.test_case "engines agree: observed runs" `Quick
        observed_differential;
      Alcotest.test_case "parallel sweep merges to serial result" `Quick
        parallel_sweep_matches_serial;
      Alcotest.test_case "parallel report identical modulo host time" `Slow
        parallel_report_matches_serial;
      Alcotest.test_case "worker failure surfaces as Worker_failed" `Quick
        worker_failure_surfaces;
      Alcotest.test_case "parallel map preserves input order" `Quick
        parallel_map_orders_results;
      Alcotest.test_case "worker death: strict by default, healed by retries"
        `Quick worker_death_heals_with_retries;
      Alcotest.test_case "full report carries no wall-clock key" `Slow
        report_has_no_wall_clock;
    ]
