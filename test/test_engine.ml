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
module Modeled = Msp430.Modeled
module T = Experiments.Toolchain
module Sweep = Experiments.Sweep
module Json = Observe.Json
module FI = Faultinject.Injector
module FS = Faultinject.Schedule

(* Everything simulated a completed run exposes; host timing and the
   observation attachment (compared separately) are excluded. The
   counters are snapshotted without the sink's and the runtime hooks'
   closures, so they compare structurally even on observed runs. *)
let stats_sig = Trace.snapshot

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

(* An observed run takes the superblock engine's observed loop, so an
   observed run under either engine setting must be identical —
   including the retained trace-event sequence, compared via the
   Chrome export. *)
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
    Observe.Chrome.export ~symtab:obs.T.o_symtab obs.T.o_events
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
  let run jobs = Sweep.compute ~benchmarks ~jobs ~frequency:Platform.Mhz24 () in
  let serial = run 1 and sharded = run 3 in
  Alcotest.(check bool)
    "sharded sweep merges to the serial result" true
    (List.map entry_sig serial = List.map entry_sig sharded);
  let renders sweep =
    ( Experiments.Tab2.(render (compute sweep)),
      Experiments.Fig8.(render (compute sweep)) )
  in
  Alcotest.(check (pair string string))
    "tab2 and fig8 render identically" (renders serial) (renders sharded)

(* The full report path: the report carries no host wall-clock, so
   serial and sharded renderings must be byte-identical as they are. *)
let parallel_report_matches_serial () =
  let benchmarks = [ Workloads.Suite.crc ] in
  let render jobs =
    Json.to_string_pretty
      Experiments.Bench_report.(compute (sweeps ~benchmarks ~jobs ()))
  in
  Alcotest.(check string) "sharded full report identical" (render 1) (render 2)

(* No key of a full report names a host wall-clock measurement. *)
let report_has_no_wall_clock () =
  let report =
    Experiments.Bench_report.(
      compute (sweeps ~benchmarks:[ Workloads.Suite.crc ] ()))
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

(* The pool's narration of that healed map: task 2's first worker dies
   once, its re-execution completes, and every task completes exactly
   once — four first dispatches plus the one retry. *)
let worker_death_narrated () =
  let module P = Experiments.Parallel in
  let marker = Filename.temp_file "pool_events" ".marker" in
  Sys.remove marker;
  let f n =
    if n = 2 && P.in_worker () && not (Sys.file_exists marker) then begin
      close_out (open_out marker);
      Unix._exit 17
    end;
    n * n
  in
  let events = ref [] in
  let xs = [ 0; 1; 2; 3 ] in
  let got =
    P.map ~jobs:2 ~retries:1 ~on_event:(fun e -> events := e :: !events) f xs
  in
  if Sys.file_exists marker then Sys.remove marker;
  Alcotest.(check (list int)) "healed to List.map" (List.map f xs) got;
  let count p = List.length (List.filter p !events) in
  Alcotest.(check int) "one death" 1
    (count (function P.Died _ -> true | _ -> false));
  Alcotest.(check int) "the death names task 2, attempt 1" 1
    (count (function
      | P.Died { task = 2; attempt = 1; _ } -> true
      | _ -> false));
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "task %d completed once" i)
        1
        (count (function P.Completed { task; _ } -> task = i | _ -> false)))
    xs;
  Alcotest.(check int) "completions" 4
    (count (function P.Completed _ -> true | _ -> false));
  Alcotest.(check int) "dispatches" 5
    (count (function P.Dispatched _ -> true | _ -> false))

(* --- Per-instruction replay -------------------------------------------

   One random instruction followed by a JMP back to it, so the
   superblock engine records it once and then replays its compiled
   closure, run from random registers and flags over random memory
   under both engines for the same fuel. The opcode word is built from
   raw fields, so every format-I op x W/B x source mode x destination
   mode the decoder accepts can come up — SR/PC destinations, byte ops
   on registers, constant generators — as can format II, RETI and the
   conditional jumps. *)

type replay_case = {
  rc_words : int list; (* opcode word, then two candidate extension words *)
  rc_at : int; (* where the instruction sits: FRAM or SRAM *)
  rc_regs : int array;
  rc_fuel : int;
  rc_seed : int; (* memory fill *)
}

(* Operand values: pointers into SRAM and FRAM (odd ones included, so
   word accesses can fault), the peripherals, small offsets and
   anything at all. *)
let gen_value =
  QCheck2.Gen.(
    frequency
      [
        (3, int_range Platform.sram_base (Platform.sram_base + Platform.sram_size - 1));
        (3, int_range Platform.fram_base (Platform.fram_base + Platform.fram_size - 1));
        (1, oneofl [ Memory.uart_tx_addr; Memory.gpio_out_addr; Memory.halt_addr ]);
        (2, map (fun o -> o land 0xFFFF) (int_range (-8) 8));
        (1, int_bound 0xFFFF);
      ])

let gen_opcode_word =
  QCheck2.Gen.(
    let field n = int_bound (n - 1) in
    frequency
      [
        ( 8,
          let* op = int_range 4 15 and* sreg = field 16 and* ad = field 2 in
          let* bw = field 2 and* as_ = field 4 and* dreg = field 16 in
          return
            ((op lsl 12) lor (sreg lsl 8) lor (ad lsl 7) lor (bw lsl 6)
           lor (as_ lsl 4) lor dreg) );
        ( 3,
          let* op = int_range 0 5 and* bw = field 2 and* as_ = field 4 in
          let* reg = field 16 in
          return
            ((0b000100 lsl 10) lor (op lsl 7) lor (bw lsl 6) lor (as_ lsl 4)
           lor reg) );
        (1, return 0x1300 (* RETI *));
        ( 2,
          let* cond = field 8 and* off = int_range (-4) 4 in
          return ((0b001 lsl 13) lor (cond lsl 10) lor (off land 0x3FF)) );
      ])

let gen_replay_case =
  QCheck2.Gen.(
    let* w0 = gen_opcode_word in
    let* ext = list_repeat 2 gen_value in
    let* rc_at = oneofl [ Platform.fram_base + 0x400; Platform.sram_base + 0x400 ] in
    let* regs = array_repeat 16 gen_value in
    let* sp = int_range (Platform.sram_base + 0x800) (Platform.sram_base + 0xF00) in
    let* sr = frequency [ (3, int_bound 0x10F); (1, int_bound 0xFFFF) ] in
    let* rc_fuel = int_range 3 40 in
    let* rc_seed = int_bound 0xFFFF in
    regs.(Isa.sp) <- sp land lnot 1;
    regs.(Isa.sr) <- sr;
    return { rc_words = w0 :: ext; rc_at; rc_regs = regs; rc_fuel; rc_seed })

let print_replay_case c =
  let words = Array.of_list c.rc_words in
  let instr =
    match
      Msp430.Encoding.decode ~addr:c.rc_at ~fetch:(fun a ->
          words.(((a - c.rc_at) land 0xFFFF) lsr 1))
    with
    | instr, _ -> Isa.to_string instr
    | exception Msp430.Encoding.Decode_error w -> Printf.sprintf "undecodable 0x%04X" w
  in
  Printf.sprintf "%s [%s] at 0x%04X; regs %s; fuel %d; memory seed %d" instr
    (String.concat " " (List.map (Printf.sprintf "%04X") c.rc_words))
    c.rc_at
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%04X") c.rc_regs)))
    c.rc_fuel c.rc_seed

(* Attach a sink that stores every event; the result reads them back
   in emission order. *)
let collect_events stats =
  let events = ref [] in
  Trace.set_sink stats (Some (Trace.event_sink (fun e -> events := e :: !events)));
  fun () -> List.rev !events

(* Build the machine: random SRAM and FRAM, the instruction's words at
   [rc_at], then a JMP back to it right after its encoded length. Run
   it, observed when [observe]; returns the simulated result, the
   observed events and the engine counters. *)
let run_replay_case ?(observe = false) engine c =
  let system = Platform.create Platform.Mhz24 in
  let mem = system.Platform.memory and cpu = system.Platform.cpu in
  Cpu.set_engine cpu engine;
  let rng = Random.State.make [| c.rc_seed |] in
  let fill base size =
    Memory.load_image mem ~addr:base
      (Bytes.init size (fun _ -> Char.chr (Random.State.int rng 256)))
  in
  fill Platform.sram_base Platform.sram_size;
  fill Platform.fram_base Platform.fram_size;
  List.iteri (fun i w -> Memory.poke_word mem (c.rc_at + (2 * i)) w) c.rc_words;
  let size =
    try
      snd
        (Msp430.Encoding.decode ~addr:c.rc_at ~fetch:(Memory.peek_word mem))
    with Msp430.Encoding.Decode_error _ -> 2
  in
  let jmp = c.rc_at + size in
  Memory.poke_word mem jmp
    (List.hd (Msp430.Encoding.encode ~addr:jmp (Isa.Jcc (Isa.JMP, -(size + 2) / 2))));
  Array.iteri (fun r v -> Cpu.set_reg cpu r v) c.rc_regs;
  Cpu.set_reg cpu Isa.pc c.rc_at;
  let events = if observe then collect_events (Cpu.stats cpu) else fun () -> [] in
  let outcome = Cpu.run ~fuel:c.rc_fuel cpu in
  ( ( outcome,
      Array.init 16 (Cpu.reg cpu),
      Cpu.halted cpu,
      stats_sig (Cpu.stats cpu),
      String.init 0x10000 (fun a -> Char.chr (Memory.peek_byte mem a)),
      Memory.uart_output mem ),
    events (),
    Cpu.engine_counters cpu )

let prop_replay_matches_reference =
  QCheck2.Test.make ~count:1000
    ~name:"engines agree: one replayed instruction from random state"
    ~print:print_replay_case gen_replay_case (fun c ->
      let result engine =
        let r, _, _ = run_replay_case engine c in
        r
      in
      result Cpu.Reference = result Cpu.Superblock)

(* --- Observed event streams ----------------------------------------------

   Both engines must emit the same [Trace.event_sink] stream, event for
   event, and leave the same machine. The observed superblock runs must
   also have replayed instructions from their records, or the property
   would only compare recording with the reference loop. A case may
   replay nothing (straight-line code, an early fault), so the replay
   count is summed over the whole sample. *)

let check_observed_streams ~name ~count ~print gen agree =
  let replayed = ref 0 in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count ~name ~print gen (fun x ->
         let same, n = agree x in
         replayed := !replayed + n;
         same));
  Alcotest.(check bool) (name ^ ": superblock runs replayed") true (!replayed > 0)

let observed_program_run engine config =
  match T.prepare { config with T.engine } with
  | Error msg -> (`Did_not_fit msg, 0)
  | Ok p ->
      let cpu = p.T.p_system.Platform.cpu in
      let events = collect_events (Cpu.stats cpu) in
      T.boot p;
      let outcome = Cpu.run ~fuel:config.T.fuel cpu in
      ( `Ran (outcome, events (), stats_sig (Cpu.stats cpu)),
        (Cpu.engine_counters cpu).Cpu.instrs_replayed )

let observed_programs_agree () =
  let small =
    { Swapram.Config.default_options with Swapram.Config.cache_size = 512 }
  in
  check_observed_streams ~count:30
    ~name:"engines emit the same observed event stream (random programs)"
    ~print:(fun s -> s)
    Test_differential.gen_program
    (fun source ->
      let config = T.default_config (bench_of_source source) in
      List.fold_left
        (fun (same, replayed) caching ->
          let config = { config with T.caching } in
          let r, _ = observed_program_run Cpu.Reference config in
          let s, n = observed_program_run Cpu.Superblock config in
          (same && r = s, replayed + n))
        (true, 0)
        [ T.Baseline; T.Swapram_cache small ])

let observed_replay_cases_agree () =
  check_observed_streams ~count:500
    ~name:"engines emit the same observed event stream (one instruction)"
    ~print:print_replay_case gen_replay_case (fun c ->
      let r, events, _ = run_replay_case ~observe:true Cpu.Reference c in
      let s, events', k = run_replay_case ~observe:true Cpu.Superblock c in
      (r = s && events = events', k.Cpu.instrs_replayed))

(* --- Specialised instruction fetches ---------------------------------------

   The superblock engine's unobserved replay loop fetches instruction
   words through [Memory.fetch_word_sram]/[fetch_word_fram], which skip
   [Memory.read]'s region dispatch and sink test. On twin memories, a
   run of them must match [read ~purpose:Ifetch ~width:2] access for
   access: the same value, the same counters and power clock, the same
   read-cache state (seen as the hit/miss pattern of follow-up reads)
   and a [Power_loss] on the same access. *)

type fetch_case = {
  fc_wait_states : int;
  fc_fram : bool; (* the fetch region: FRAM or SRAM *)
  fc_warm : int list; (* FRAM word reads that pre-warm the read cache *)
  fc_fetches : (bool * int) list; (* starts an instruction?, address *)
  fc_probe : int list; (* FRAM word reads after the fetches *)
  fc_trigger : int option; (* [After_accesses n], armed after warm-up *)
  fc_seed : int; (* memory fill *)
}

(* Even addresses in a region, most of them inside one 32-byte window
   so that read-cache lines are reused. *)
let gen_even_in base size =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun i -> base + 0x100 + (2 * i)) (int_bound 15));
        (1, map (fun i -> base + (2 * i)) (int_bound ((size / 2) - 1)));
      ])

let gen_fetch_case =
  QCheck2.Gen.(
    let fram = gen_even_in Platform.fram_base Platform.fram_size in
    let* fc_wait_states = oneofl [ 0; 3 ] and* fc_fram = bool in
    let* fc_warm = list_size (int_bound 8) fram in
    let region =
      if fc_fram then fram else gen_even_in Platform.sram_base Platform.sram_size
    in
    let* fc_fetches = list_size (int_range 1 12) (pair bool region) in
    let* fc_probe = list_size (int_range 1 8) fram in
    let* fc_trigger =
      frequency [ (1, return None); (2, map Option.some (int_range 1 24)) ]
    in
    let* fc_seed = int_bound 0xFFFF in
    return
      { fc_wait_states; fc_fram; fc_warm; fc_fetches; fc_probe; fc_trigger; fc_seed })

let print_fetch_case c =
  let addrs l = String.concat " " (List.map (Printf.sprintf "%04X") l) in
  Printf.sprintf
    "%d wait states; %s fetches [%s]; warm [%s]; probe [%s]; trigger %s; seed %d"
    c.fc_wait_states
    (if c.fc_fram then "FRAM" else "SRAM")
    (String.concat " "
       (List.map
          (fun (first, a) -> Printf.sprintf "%s%04X" (if first then "|" else "") a)
          c.fc_fetches))
    (addrs c.fc_warm) (addrs c.fc_probe)
    (match c.fc_trigger with None -> "none" | Some n -> string_of_int n)
    c.fc_seed

(* Run [c] on a fresh memory, fetching through [fetch]: the value (or
   [Power_loss]) of every fetch and probe read, each with the counters
   and power clock right after it. *)
let run_fetch_case fetch c =
  let stats = Trace.create () in
  let mem =
    Memory.create ~wait_states:c.fc_wait_states ~map:Platform.fr2355_map ~stats ()
  in
  let rng = Random.State.make [| c.fc_seed |] in
  Memory.load_image mem ~addr:0
    (Bytes.init 0x10000 (fun _ -> Char.chr (Random.State.int rng 256)));
  let read a = Memory.read mem ~purpose:Memory.Data ~width:2 a in
  List.iter (fun a -> ignore (read a)) c.fc_warm;
  Memory.arm_power_trigger mem
    (Option.map (fun n -> Memory.After_accesses n) c.fc_trigger);
  let step f a =
    let v = match f a with v -> Some v | exception Memory.Power_loss -> None in
    (v, stats_sig stats, Memory.access_ticks mem)
  in
  let fetched =
    List.map
      (fun (first, a) ->
        if first then Memory.begin_instruction mem;
        step (fetch mem) a)
      c.fc_fetches
  in
  (fetched, List.map (step read) c.fc_probe)

let specialised_fetches_match_read () =
  let hits = ref 0 and losses = ref 0 in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:1000 ~name:"specialised fetches = generic Ifetch read"
       ~print:print_fetch_case gen_fetch_case (fun c ->
         let specialised =
           if c.fc_fram then Memory.fetch_word_fram else Memory.fetch_word_sram
         in
         let generic mem a = Memory.read mem ~purpose:Memory.Ifetch ~width:2 a in
         let fetched, probed = run_fetch_case specialised c in
         let r = (fetched, probed) = run_fetch_case generic c in
         ignore
           (List.fold_left
              (fun before (v, s, _) ->
                if v = None then incr losses;
                if s.Trace.fram_read_hits > before then incr hits;
                s.Trace.fram_read_hits)
              max_int fetched);
         r));
  (* The sample must reach read-cache hits and power losses mid-run,
     or the property would only compare the common path. *)
  Alcotest.(check bool) "fetches hit the read cache" true (!hits > 0);
  Alcotest.(check bool) "fetches lose power" true (!losses > 0)

(* --- The modeled runtimes' charged-instruction core --------------------

   SwapRAM's miss handler, the block cache's runtime and the
   checkpointing runtime all charge their modeled instructions and
   copy loops through [Msp430.Modeled]. *)

let modeled_mem ?(wait_states = 3) () =
  Memory.create ~wait_states ~map:Platform.fr2355_map ~stats:(Trace.create ()) ()

let handler_base = Platform.fram_base + 0x40
let memcpy_base = Platform.fram_base + 0x200
let copy_src = Platform.fram_base + 0x400

let charge_walks_and_wraps () =
  let mem = modeled_mem () in
  let events = collect_events (Memory.stats mem) in
  let r = Modeled.region mem ~base:handler_base ~size:6 Trace.Handler in
  Modeled.charge r 5;
  Modeled.charge r 3;
  let expected = List.init 8 (fun i -> handler_base + (2 * (i mod 3))) in
  let events = events () in
  let pcs =
    List.filter_map
      (function Trace.Instr { pc; source = Trace.Handler } -> Some pc | _ -> None)
      events
  in
  let ifetches =
    List.filter_map
      (function
        | Trace.Mem_access { addr; cls = Trace.Fram_read { ifetch = true; _ } } ->
            Some addr
        | _ -> None)
      events
  in
  Alcotest.(check (list int)) "instr pcs walk the region and wrap" expected pcs;
  Alcotest.(check (list int)) "one ifetch per instruction, at its pc" expected ifetches;
  let stats = Memory.stats mem in
  Alcotest.(check int) "handler instructions" 8
    stats.Trace.instr_by_source.(Trace.source_index Trace.Handler);
  Alcotest.(check int) "unstalled cycles" (8 * Modeled.cycles_per_instr)
    stats.Trace.unstalled_cycles;
  Alcotest.(check int) "cursor" 4 r.Modeled.cursor

type modeled_case = {
  mc_wait_states : int;
  mc_size : int; (* handler region bytes *)
  mc_ops : [ `Charge of int | `Copy of int ] list;
  mc_trigger : int option; (* [After_accesses n] *)
}

let gen_modeled_case =
  QCheck2.Gen.(
    let* mc_wait_states = oneofl [ 0; 3 ] and* mc_size = map (( * ) 2) (int_range 1 32) in
    let* mc_ops =
      list_size (int_range 1 8)
        (oneof
           [
             map (fun n -> `Charge n) (int_bound 40);
             map (fun w -> `Copy w) (int_bound 12);
           ])
    in
    let* mc_trigger =
      frequency [ (1, return None); (2, map Option.some (int_range 1 200)) ]
    in
    return { mc_wait_states; mc_size; mc_ops; mc_trigger })

let print_modeled_case c =
  Printf.sprintf "%d wait states; region %d bytes; ops [%s]; trigger %s"
    c.mc_wait_states c.mc_size
    (String.concat " "
       (List.map
          (function
            | `Charge n -> Printf.sprintf "charge %d" n
            | `Copy w -> Printf.sprintf "copy %d" w)
          c.mc_ops))
    (match c.mc_trigger with None -> "none" | Some n -> string_of_int n)

(* Run [c]'s charges and copies, observed through an event sink or
   not: whether power was lost, the words counted, the counters, the
   power clock and both cursors. *)
let run_modeled_case ~observe c =
  let mem = modeled_mem ~wait_states:c.mc_wait_states () in
  if observe then Trace.set_sink (Memory.stats mem) (Some (Trace.event_sink ignore));
  let handler = Modeled.region mem ~base:handler_base ~size:c.mc_size Trace.Handler in
  let memcpy = Modeled.region mem ~base:memcpy_base ~size:64 Trace.Memcpy in
  Memory.arm_power_trigger mem
    (Option.map (fun n -> Memory.After_accesses n) c.mc_trigger);
  let copied = ref 0 in
  let lost =
    match
      List.iter
        (function
          | `Charge n -> Modeled.charge handler n
          | `Copy words ->
              Modeled.copy memcpy ~src:copy_src ~dst:Platform.sram_base ~words
                ~on_word:(fun () -> incr copied))
        c.mc_ops
    with
    | () -> false
    | exception Memory.Power_loss -> true
  in
  ( lost,
    !copied,
    stats_sig (Memory.stats mem),
    Memory.access_ticks mem,
    handler.Modeled.cursor,
    memcpy.Modeled.cursor )

let observed_charges_match_unobserved () =
  let losses = ref 0 in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~count:500 ~name:"observed charges = unobserved charges"
       ~print:print_modeled_case gen_modeled_case (fun c ->
         let ((lost, _, _, _, _, _) as observed) = run_modeled_case ~observe:true c in
         if lost then incr losses;
         observed = run_modeled_case ~observe:false c));
  Alcotest.(check bool) "charges lose power" true (!losses > 0)

(* A copy dying at access [k] has counted exactly the words whose
   write landed: each word is [memcpy_per_word_instrs] fetches, one
   read and one write, and the dying access never takes effect. *)
let cut_copy_counts_landed_words () =
  let words = 6 and per_word = Modeled.memcpy_per_word_instrs + 2 in
  let value i = 0x1111 * (i + 1) in
  for k = 1 to (per_word * words) + 1 do
    let mem = modeled_mem () in
    let r = Modeled.region mem ~base:memcpy_base ~size:64 Trace.Memcpy in
    for i = 0 to words - 1 do
      Memory.poke_word mem (copy_src + (2 * i)) (value i);
      Memory.poke_word mem (Platform.sram_base + (2 * i)) 0
    done;
    Memory.arm_power_trigger mem (Some (Memory.After_accesses k));
    let copied = ref 0 in
    let lost =
      match
        Modeled.copy r ~src:copy_src ~dst:Platform.sram_base ~words
          ~on_word:(fun () -> incr copied)
      with
      | () -> false
      | exception Memory.Power_loss -> true
    in
    let at = Printf.sprintf " (trigger at access %d)" k in
    Alcotest.(check bool) ("power lost" ^ at) (k <= per_word * words) lost;
    Alcotest.(check int) ("words counted" ^ at) (min words ((k - 1) / per_word)) !copied;
    for i = 0 to words - 1 do
      Alcotest.(check int)
        (Printf.sprintf "word %d%s" i at)
        (if i < !copied then value i else 0)
        (Memory.peek_word mem (Platform.sram_base + (2 * i)))
    done
  done

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
      Alcotest.test_case "worker death is narrated once per event" `Quick
        worker_death_narrated;
      Alcotest.test_case "full report carries no wall-clock key" `Slow
        report_has_no_wall_clock;
      QCheck_alcotest.to_alcotest prop_replay_matches_reference;
      Alcotest.test_case
        "engines emit the same observed event stream (random programs)" `Quick
        observed_programs_agree;
      Alcotest.test_case
        "engines emit the same observed event stream (one instruction)" `Quick
        observed_replay_cases_agree;
      Alcotest.test_case "specialised fetches = generic Ifetch read" `Quick
        specialised_fetches_match_read;
      Alcotest.test_case "modeled charges walk their region and wrap" `Quick
        charge_walks_and_wraps;
      Alcotest.test_case "observed charges = unobserved charges" `Quick
        observed_charges_match_unobserved;
      Alcotest.test_case "a cut copy counts exactly the landed words" `Quick
        cut_copy_counts_landed_words;
    ]
