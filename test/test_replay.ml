(* Differential replay equivalence: a trace recorded from the counted
   event stream must let the replay engine reproduce the executor —
   cycles, energy, every counter, the per-window metrics series —
   bit-for-bit, across every Table-2 benchmark and both caching
   runtimes, plus random programs. The binary format itself gets a
   QCheck round-trip property, truncation/version error checks, and a
   golden byte-for-byte snapshot pinned at seed 1. *)

module Trace = Msp430.Trace
module Platform = Msp430.Platform
module Engine = Replay.Engine
module Trace_file = Replay.Trace_file
module Toolchain = Experiments.Toolchain
module Replay_sweep = Experiments.Replay_sweep
module Parallel = Experiments.Parallel

let with_temp_trace f =
  let path = Filename.temp_file "replay-test-" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let config_for b system =
  {
    (Toolchain.default_config b) with
    Toolchain.caching = Option.get (Toolchain.caching_of_name system);
  }

(* --- Tentpole: replay-equivalence over the Table-2 suite --------------- *)

(* One (benchmark x system) cell per worker: record with the full
   metrics stack attached, then check the replay against the recorded
   run — exact totals / counters via Replay_sweep.verify_exact and
   the windowed metrics series byte-for-byte through every renderer.
   Combinations that crash or don't fit record nothing and are
   vacuously equivalent (the block cache doesn't fit four of the
   nine). Returns failure descriptions so comparisons happen inside
   the forked worker (results cross the process boundary as plain
   strings). *)
let equivalence_failures (b, system) =
  let name = b.Workloads.Bench_def.name in
  let tag msg = Printf.sprintf "%s/%s: %s" name system msg in
  with_temp_trace (fun trace ->
      let config = config_for b system in
      match
        Toolchain.run_recorded ~observe:Toolchain.metrics_observe ~trace config
      with
      | Toolchain.Did_not_fit _ | Toolchain.Crashed _ -> []
      | Toolchain.Completed res -> (
          match Engine.load trace with
          | Error e -> [ tag ("load: " ^ Engine.error_message e) ]
          | Ok l -> (
              let counter_fails =
                List.map tag (Replay_sweep.verify_exact l res)
              in
              let metrics_fails =
                match res.Toolchain.observation with
                | Some { Toolchain.o_metrics = Some m; _ } -> (
                    match Engine.replay_metrics trace with
                    | Error e ->
                        [ tag ("replay_metrics: " ^ Engine.error_message e) ]
                    | Ok (rm, _) ->
                        List.filter_map
                          (fun (what, render) ->
                            if String.equal (render rm) (render m) then None
                            else Some (tag ("metrics " ^ what ^ " diverges")))
                          [
                            ("series csv", Observe.Metrics.render_csv);
                            ("mrc", fun m -> Observe.Metrics.render_mrc m);
                            ( "heatmaps",
                              fun m -> Observe.Metrics.render_heatmaps m );
                          ])
                | _ -> [ tag "metrics sampler was not attached" ]
              in
              counter_fails @ metrics_fails)))

let equivalence_test () =
  let pairs =
    List.concat_map
      (fun b -> [ (b, "swapram"); (b, "block") ])
      Workloads.Suite.all
  in
  let fails =
    Parallel.map ~jobs:(Parallel.ncores ()) equivalence_failures pairs
    |> List.concat
  in
  if fails <> [] then Alcotest.failf "%s" (String.concat "\n" fails)

(* Random programs: record -> replay == execute, under a small cache
   so the eviction/abort paths are exercised too. *)
let prop_record_replay_equals_execute =
  QCheck2.Test.make ~count:15
    ~name:"record -> replay reproduces execution (random programs)"
    ~print:(fun s -> s) Test_differential.gen_program (fun source ->
      let b =
        {
          Workloads.Bench_def.name = "qcheck";
          short = "QCK";
          source = (fun _ -> source);
          fits_data_in_sram = false;
        }
      in
      let options =
        { Swapram.Config.default_options with Swapram.Config.cache_size = 512 }
      in
      let config =
        {
          (Toolchain.default_config b) with
          Toolchain.caching = Toolchain.Swapram_cache options;
        }
      in
      with_temp_trace (fun trace ->
          match Toolchain.run_recorded ~trace config with
          | Toolchain.Did_not_fit msg ->
              QCheck2.Test.fail_reportf "did not fit: %s" msg
          | Toolchain.Crashed o ->
              QCheck2.Test.fail_reportf "crashed: %s" (Msp430.Cpu.outcome_name o)
          | Toolchain.Completed res -> (
              match Engine.load trace with
              | Error e ->
                  QCheck2.Test.fail_reportf "load: %s" (Engine.error_message e)
              | Ok l -> (
                  match Replay_sweep.verify_exact l res with
                  | [] -> true
                  | m ->
                      QCheck2.Test.fail_reportf "%s" (String.concat "; " m)))))

(* --- Binary format: QCheck round-trip ---------------------------------- *)

let gen_addr = QCheck2.Gen.int_range 0 0xFFFF

let gen_source =
  QCheck2.Gen.oneofl
    [ Trace.App_fram; Trace.App_sram; Trace.Handler; Trace.Memcpy ]

let gen_event =
  let open QCheck2.Gen in
  oneof
    [
      (let* pc = gen_addr and* source = gen_source in
       return (Trace.Instr { pc; source }));
      (let* unstalled = int_range 0 40 and* stall = int_range 0 12 in
       return (Trace.Cycles { unstalled; stall }));
      (let* addr = gen_addr and* hit = bool and* ifetch = bool in
       return (Trace.Mem_access { addr; cls = Trace.Fram_read { hit; ifetch } }));
      (let* addr = gen_addr in
       return (Trace.Mem_access { addr; cls = Trace.Fram_write }));
      (let* addr = gen_addr and* ifetch = bool in
       return (Trace.Mem_access { addr; cls = Trace.Sram_read { ifetch } }));
      (let* addr = gen_addr in
       return (Trace.Mem_access { addr; cls = Trace.Sram_write }));
      (let* addr = gen_addr in
       return (Trace.Mem_access { addr; cls = Trace.Periph_access }));
      (let* target = gen_addr in
       return (Trace.Call { target }));
      return Trace.Return;
      (let* runtime = oneofl [ "swapram"; "block" ] in
       return (Trace.Runtime_event (Trace.Miss_enter { runtime })));
      (let* runtime = oneofl [ "swapram"; "block" ]
       and* disposition =
         oneofl [ "cached"; "return"; "nvm"; "frozen"; "too-large" ]
       and* fid = int_range (-1) 40 in
       return
         (Trace.Runtime_event (Trace.Miss_exit { runtime; disposition; fid })));
      (let* fid = int_range 0 40 in
       return (Trace.Runtime_event (Trace.Eviction { fid })));
      (let* on = bool in
       return (Trace.Runtime_event (Trace.Freeze { on })));
      return (Trace.Runtime_event Trace.Cache_flush);
      (let* nvm = gen_addr in
       return (Trace.Runtime_event (Trace.Block_load { nvm })));
      (let* fid = int_range 0 40 in
       return (Trace.Runtime_event (Trace.Prefetch { fid })));
      (let* name = oneofl [ "boot"; "reboot"; "phase-1" ] in
       return (Trace.Runtime_event (Trace.Phase { name })));
    ]

let gen_events = QCheck2.Gen.list_size (QCheck2.Gen.int_range 0 400) gen_event

let roundtrip_header =
  {
    Trace_file.benchmark = "roundtrip";
    seed = 7;
    frequency_mhz = 24;
    wait_states = 3;
    contention_penalty = 1;
    system = "swapram";
    placement = "code+data FRAM";
    budget = 2048;
    (* one size per unit [call_unit] answers: the decoder rejects a
       unit at or past the function count *)
    granularity = Trace_file.Functions (Array.init 16 (fun fid -> 64 + (36 * fid)));
    fingerprint = 123456789;
  }

(* Deterministic hook-answer stand-ins; the property checks the decoded
   answers against the same functions. *)
let call_unit t = if t land 3 = 0 then (t lsr 2) land 15 else -1
let ifetch_home a = a land lnot 63

(* Feed one stored event to a sink, with the answers above: what the
   emit sites do on a live run, asking the runtime's hooks. *)
let feed (s : Trace.sink) (ev : Trace.event) =
  match ev with
  | Trace.Instr { pc; source } -> s.Trace.instr (Trace.source_index source) pc
  | Trace.Cycles { unstalled; stall } -> s.Trace.cycles unstalled stall
  | Trace.Mem_access { addr; cls } -> (
      match cls with
      | Trace.Fram_read { hit; ifetch = false } -> s.Trace.fram_read hit addr
      | Trace.Fram_read { hit; ifetch = true } ->
          s.Trace.fram_ifetch hit addr (ifetch_home addr)
      | Trace.Fram_write -> s.Trace.fram_write addr
      | Trace.Sram_read { ifetch = false } -> s.Trace.sram_read addr
      | Trace.Sram_read { ifetch = true } ->
          s.Trace.sram_ifetch addr (ifetch_home addr)
      | Trace.Sram_write -> s.Trace.sram_write addr
      | Trace.Periph_access -> s.Trace.periph addr)
  | Trace.Call { target } -> s.Trace.call target (call_unit target)
  | Trace.Return -> s.Trace.return ()
  | Trace.Runtime_event ev -> s.Trace.runtime ev

let record_events ?(header = roundtrip_header) path events =
  let w = Trace_file.create_writer path header in
  List.iter (feed (Trace_file.sink w)) events;
  Trace_file.close_writer w

(* A sink that hands every event it receives as a value through
   [Trace.event_sink] to [answered], paired with its hook answer: the
   unit of a call, the home of an instruction fetch, 0 otherwise. *)
let answering answered =
  let s = Trace.event_sink (fun ev -> answered ev 0) in
  {
    s with
    Trace.fram_ifetch =
      (fun hit addr home ->
        answered
          (Trace.Mem_access { addr; cls = Trace.Fram_read { hit; ifetch = true } })
          home);
    sram_ifetch =
      (fun addr home ->
        answered
          (Trace.Mem_access { addr; cls = Trace.Sram_read { ifetch = true } })
          home);
    call = (fun target u -> answered (Trace.Call { target }) u);
  }

(* [answering], keeping the events. *)
let capture () =
  let acc = ref [] in
  (answering (fun ev answer -> acc := (ev, answer) :: !acc), fun () -> List.rev !acc)

(* What a sink that takes templated instructions whole receives:
   tagged events with their answers, and whole records. *)
type seen = Event of Trace.event * int | Record of Trace.template * int * int array

let capture_whole () =
  let acc = ref [] in
  let s = answering (fun ev answer -> acc := Event (ev, answer) :: !acc) in
  ( {
      s with
      Trace.templated =
        Some
          (fun tp bits payload ->
            acc := Record (tp, bits, Array.sub payload 0 tp.Trace.tp_payload) :: !acc);
    },
    fun () -> List.rev !acc )

(* The same sink with templated instructions expanded into its
   per-event callbacks. *)
let expanded (s : Trace.sink) = { s with Trace.templated = None }

let rec is_prefix = function
  | [], _ -> true
  | x :: xs, y :: ys -> x = y && is_prefix (xs, ys)
  | _ :: _, [] -> false

(* Every event of [path] through [capture]; the events come back on an
   error too, up to where it struck. *)
let decode_events path =
  let sink, events = capture () in
  let result = Trace_file.iter path ~make:(fun _ -> sink) in
  (result, events ())

let decode_all path =
  match decode_events path with
  | Error e, _ -> Error e
  | Ok (h, count), events -> Ok (h, events, count)

(* Every record and tagged event of [path] through [capture_whole];
   on an error too, up to where it struck. *)
let decode_whole path =
  let sink, seen = capture_whole () in
  let result = Trace_file.iter path ~make:(fun _ -> sink) in
  (result, seen ())

(* A [decode_whole] log expanded into the events a [capture] sink sees. *)
let expand_seen seen =
  let acc = ref [] in
  let sink = answering (fun ev answer -> acc := (ev, answer) :: !acc) in
  List.iter
    (function
      | Event (ev, answer) -> acc := (ev, answer) :: !acc
      | Record (tp, bits, payload) -> Trace.expand sink tp bits payload)
    seen;
  List.rev !acc

let prop_format_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"encode -> decode is the identity"
    gen_events (fun events ->
      with_temp_trace (fun path ->
          record_events path events;
          match decode_all path with
          | Error e ->
              QCheck2.Test.fail_reportf "decode: %s"
                (Trace_file.error_message e)
          | Ok (h, decoded, count) ->
              if h <> roundtrip_header then
                QCheck2.Test.fail_reportf "header did not round-trip"
              else if count <> List.length events then
                QCheck2.Test.fail_reportf "count %d <> %d" count
                  (List.length events)
              else begin
                List.iter2
                  (fun ev (decoded_ev, answer) ->
                    if decoded_ev <> ev then
                      QCheck2.Test.fail_reportf "event did not round-trip";
                    (match ev with
                    | Trace.Call { target } ->
                        if answer <> call_unit target then
                          QCheck2.Test.fail_reportf "call unit mismatch"
                    | _ -> ());
                    match ev with
                    | Trace.Mem_access
                        {
                          addr;
                          cls =
                            ( Trace.Fram_read { ifetch = true; _ }
                            | Trace.Sram_read { ifetch = true } );
                        } ->
                        if answer <> ifetch_home addr then
                          QCheck2.Test.fail_reportf "ifetch home mismatch"
                    | _ -> ())
                  events decoded;
                true
              end))

(* --- Binary format: malformed files are errors, never exceptions ------- *)

let sample_events =
  [
    Trace.Instr { pc = 0x4400; source = Trace.App_fram };
    Trace.Mem_access
      { addr = 0x4400; cls = Trace.Fram_read { hit = false; ifetch = true } };
    Trace.Cycles { unstalled = 1; stall = 3 };
    Trace.Call { target = 0x4500 };
    Trace.Runtime_event (Trace.Miss_enter { runtime = "swapram" });
    Trace.Runtime_event
      (Trace.Miss_exit { runtime = "swapram"; disposition = "cached"; fid = 2 });
    Trace.Runtime_event (Trace.Eviction { fid = 1 });
    Trace.Return;
  ]

let sample_bytes () =
  with_temp_trace (fun path ->
      record_events path sample_events;
      read_file path)

let expect_error data what =
  with_temp_trace (fun path ->
      write_file path data;
      (match Trace_file.read_header path with
      | Ok _ when String.length data < 10 ->
          Alcotest.failf "%s: header decoded from malformed file" what
      | _ -> ());
      match decode_all path with
      | Ok _ -> Alcotest.failf "%s: decoded a malformed file" what
      | Error _ -> ())

let truncation_test () =
  let data = sample_bytes () in
  let n = String.length data in
  List.iter
    (fun cut ->
      expect_error (String.sub data 0 cut) (Printf.sprintf "cut at %d" cut))
    [ 0; 1; 3; 4; 5; 6; 9; n / 4; n / 2; n - 1 ]

let version_mismatch_test () =
  let data = Bytes.of_string (sample_bytes ()) in
  Bytes.set data 4 '\xFF';
  Bytes.set data 5 '\x7F';
  with_temp_trace (fun path ->
      write_file path (Bytes.to_string data);
      match Trace_file.read_header path with
      | Error (Trace_file.Version_mismatch { found; expected }) ->
          Alcotest.(check int) "found" 0x7FFF found;
          Alcotest.(check int) "expected" Trace_file.version expected
      | Error e ->
          Alcotest.failf "expected version mismatch, got %s"
            (Trace_file.error_message e)
      | Ok _ -> Alcotest.fail "header decoded despite version skew")

let bad_magic_test () =
  let data = sample_bytes () in
  expect_error ("NOPE" ^ String.sub data 4 (String.length data - 4)) "bad magic"

let trailing_bytes_test () =
  let data = sample_bytes () ^ "\x00" in
  with_temp_trace (fun path ->
      write_file path data;
      match decode_all path with
      | Ok _ -> Alcotest.fail "decoded despite trailing bytes"
      | Error (Trace_file.Corrupt _) -> ()
      | Error e ->
          Alcotest.failf "expected corrupt, got %s" (Trace_file.error_message e))

(* Unit sizes index the reuse tracker's distance histogram, so a
   header with a negative function size or a non-positive line size is
   corrupt input, rejected at decode. *)
let bad_unit_size_test () =
  List.iter
    (fun granularity ->
      with_temp_trace (fun path ->
          record_events
            ~header:{ roundtrip_header with Trace_file.granularity }
            path sample_events;
          match Trace_file.read_header path with
          | Error (Trace_file.Corrupt _) -> ()
          | Error e ->
              Alcotest.failf "expected corrupt, got %s"
                (Trace_file.error_message e)
          | Ok _ -> Alcotest.fail "decoded a bad unit size"))
    [ Trace_file.Functions [| 100; -1 |]; Trace_file.Lines 0 ]

(* --- Golden trace snapshot (seed 1) ------------------------------------ *)

(* The exact source the committed golden trace was recorded from (the
   CLI path `record --file replay_tiny.c`, which names the benchmark
   after the file). Byte-for-byte equality of a fresh recording pins
   the whole encoding: tag layout, deltas, varints, interning order.
   Any intentional format change must bump Trace_file.version and
   regenerate the snapshot. *)
let tiny_source =
  "int acc = 0;\n\n\
   int mix(int a, int b) {\n\
  \  return (a * 3 + b) & 0x7FFF;\n\
   }\n\n\
   int step(int i) {\n\
  \  acc = mix(acc, i);\n\
  \  return acc;\n\
   }\n\n\
   int main(void) {\n\
  \  for (int i = 0; i < 20; i++) {\n\
  \    acc = step(i) ^ (i << 2);\n\
  \  }\n\
  \  putchar('a' + (acc & 15));\n\
  \  return acc & 0x7FFF;\n\
   }\n"

let tiny_bench =
  {
    Workloads.Bench_def.name = "replay_tiny.c";
    short = "USR";
    source = (fun _ -> tiny_source);
    fits_data_in_sram = false;
  }

let tiny_config ?(system = "swapram") () = config_for tiny_bench system

let record_tiny ?system path =
  match Toolchain.run_recorded ~trace:path (tiny_config ?system ()) with
  | Toolchain.Completed res -> res
  | Toolchain.Crashed o ->
      Alcotest.failf "tiny recording crashed: %s" (Msp430.Cpu.outcome_name o)
  | Toolchain.Did_not_fit msg ->
      Alcotest.failf "tiny recording did not fit: %s" msg

(* dune runtest runs from _build/default/test; dune exec from the repo
   root — resolve whichever layout we're in (as test_golden). *)
let golden_path file =
  if Sys.file_exists "golden" then Filename.concat "golden" file
  else Filename.concat "test" (Filename.concat "golden" file)

let golden_traces =
  [
    ("swapram", "replay_tiny.trace");
    ("block", "replay_tiny_block.trace");
    ("baseline", "replay_tiny_baseline.trace");
  ]

(* One snapshot per system: the SwapRAM recording carries call units,
   the block-cache one line-granular ifetch homes, the baseline the
   machine's own answers. *)
let golden_trace_test () =
  List.iter
    (fun (system, file) ->
      with_temp_trace (fun trace ->
          ignore (record_tiny ~system trace);
          let fresh = read_file trace in
          let pinned = read_file (golden_path file) in
          if not (String.equal fresh pinned) then
            Alcotest.failf
              "%s: recorded trace differs from golden snapshot (%d vs %d \
               bytes); format changes must bump Trace_file.version and \
               regenerate test/golden/%s"
              system (String.length fresh) (String.length pinned) file))
    golden_traces

(* --- Cross-configuration validation ------------------------------------ *)

(* Simulating the trace at budget B must agree with actually running
   the system at cache size B on miss counts, for budgets where the
   real allocator doesn't fragment (footprint fits: every miss is a
   cold miss in both worlds). *)
let cross_budget_test () =
  with_temp_trace (fun trace ->
      let recorded = record_tiny trace in
      let l =
        match Engine.load trace with
        | Ok l -> l
        | Error e -> Alcotest.failf "load: %s" (Engine.error_message e)
      in
      Alcotest.(check (list string))
        "replay of the recording is exact" []
        (Replay_sweep.verify_exact l recorded);
      let fp = Engine.footprint l in
      Alcotest.(check bool) "tiny footprint fits 768 B" true (fp <= 768);
      List.iter
        (fun budget ->
          let sim =
            Engine.simulate l
              { Engine.m_budget = budget; m_policy = Engine.Lru; m_block = None }
          in
          let options =
            {
              Swapram.Config.default_options with
              Swapram.Config.cache_size = budget;
            }
          in
          let config =
            {
              (Toolchain.default_config tiny_bench) with
              Toolchain.caching = Toolchain.Swapram_cache options;
            }
          in
          match Toolchain.run config with
          | Toolchain.Completed res ->
              let stats = Option.get res.Toolchain.swapram_stats in
              Alcotest.(check int)
                (Printf.sprintf "no evictions at %d B" budget)
                0 stats.Swapram.Runtime.evictions;
              Alcotest.(check int)
                (Printf.sprintf "simulated misses = executed misses at %d B"
                   budget)
                stats.Swapram.Runtime.misses sim.Engine.s_misses
          | _ -> Alcotest.failf "execution at %d B did not complete" budget)
        [ 768; 2048 ])

(* A budget below the smallest unit caches nothing: every reference
   misses, under every policy. *)
let thrash_test () =
  with_temp_trace (fun trace ->
      ignore (record_tiny trace);
      let l = Result.get_ok (Engine.load trace) in
      List.iter
        (fun policy ->
          let sim =
            Engine.simulate l
              { Engine.m_budget = 1; m_policy = policy; m_block = None }
          in
          Alcotest.(check int)
            (Engine.policy_name policy ^ ": every ref misses")
            sim.Engine.s_refs sim.Engine.s_misses)
        [ Engine.Lru; Engine.Lfu; Engine.Cost_aware ])

(* The MRC rebuilt from the replayed stream must match the one the
   live Observe.Reuse tracker measured during execution, at function
   granularity (swapram: one single-access run per call) and at line
   granularity (block: RLE line runs fed to the tracker as runs). *)
let mrc_identity_test () =
  List.iter
    (fun system ->
      with_temp_trace (fun trace ->
          let config = tiny_config ~system () in
          match
            Toolchain.run_recorded ~observe:Toolchain.metrics_observe ~trace
              config
          with
          | Toolchain.Completed res ->
              let live =
                match res.Toolchain.observation with
                | Some { Toolchain.o_metrics = Some m; _ } ->
                    Option.get (Observe.Metrics.reuse_tracker m)
                | _ -> Alcotest.fail "metrics sampler was not attached"
              in
              let l = Result.get_ok (Engine.load trace) in
              let replayed = Engine.mrc l in
              let check label f =
                Alcotest.(check int) (system ^ ": " ^ label) (f live) (f replayed)
              in
              check "accesses" Observe.Reuse.accesses;
              check "units" Observe.Reuse.units;
              check "footprint" Observe.Reuse.footprint;
              check "measured misses" Observe.Reuse.measured_misses;
              (* Every budget up to the footprint, so the line size,
                 where a run's tail lands, is included; with equal
                 accesses this pins the whole miss-rate curve. *)
              let per_budget f r =
                List.init (Observe.Reuse.footprint live + 2) (fun budget ->
                    f r ~budget)
              in
              Alcotest.(check (list int))
                (system ^ ": predicted misses at every budget")
                (per_budget Observe.Reuse.predicted_misses live)
                (per_budget Observe.Reuse.predicted_misses replayed);
              Alcotest.(check (list int))
                (system ^ ": fill bytes at every budget")
                (per_budget Observe.Reuse.fill_bytes live)
                (per_budget Observe.Reuse.fill_bytes replayed)
          | _ -> Alcotest.failf "tiny %s recording did not complete" system))
    [ "swapram"; "block" ]

(* Retargeting: one trace recorded at 24 MHz recomputes the 8 MHz
   system — different wait states, different energy point — and must
   agree bit-for-bit with actually executing at 8 MHz. *)
let frequency_retarget_test () =
  with_temp_trace (fun trace ->
      let b = Workloads.Suite.rsa in
      let config = config_for b "swapram" in
      (match Toolchain.run_recorded ~trace config with
      | Toolchain.Completed _ -> ()
      | _ -> Alcotest.fail "rsa recording did not complete");
      let l = Result.get_ok (Engine.load trace) in
      let t =
        match Engine.exact ~frequency_mhz:8 l with
        | Ok t -> t
        | Error msg -> Alcotest.failf "exact at 8 MHz: %s" msg
      in
      match
        Toolchain.run
          { config with Toolchain.frequency = Platform.Mhz8 }
      with
      | Toolchain.Completed res ->
          let stats = res.Toolchain.stats in
          Alcotest.(check int)
            "unstalled cycles" stats.Trace.unstalled_cycles
            t.Engine.t_unstalled;
          Alcotest.(check int)
            "stall cycles" stats.Trace.stall_cycles t.Engine.t_stall;
          Alcotest.(check int)
            "total cycles"
            (Trace.total_cycles stats)
            t.Engine.t_cycles;
          Alcotest.(check bool)
            "energy bitwise" true
            (res.Toolchain.energy.Msp430.Energy.energy_nj
             = t.Engine.t_energy_nj);
          Alcotest.(check bool)
            "time bitwise" true
            (res.Toolchain.energy.Msp430.Energy.time_s = t.Engine.t_time_s)
      | _ -> Alcotest.fail "8 MHz execution did not complete")

(* --- Staleness --------------------------------------------------------- *)

(* [load_cached] keys its decode by path, so rewriting the file behind
   a path under another configuration must yield the new trace's
   answers, not the old decode. *)
let load_cached_rewrite_test () =
  with_temp_trace (fun trace ->
      let load () =
        match Engine.load_cached trace with
        | Ok l -> l
        | Error e -> Alcotest.failf "load_cached: %s" (Engine.error_message e)
      in
      ignore (record_tiny trace);
      let a = load () in
      ignore (record_tiny ~system:"block" trace);
      let b = load () in
      Alcotest.(check string)
        "header follows the file" "block" b.Engine.header.Trace_file.system;
      if a.Engine.events = b.Engine.events && a.Engine.refs = b.Engine.refs
      then
        Alcotest.fail
          "rewritten trace returned the old recording's decode (stale cache \
           hit)")

(* ?expect refuses a trace recorded under another configuration. *)
let expect_stale_test () =
  with_temp_trace (fun trace ->
      ignore (record_tiny trace);
      let l = Result.get_ok (Engine.load trace) in
      let cells = Replay_sweep.grid () in
      (match
         Replay_sweep.replay_cells ~expect:(tiny_config ~system:"block" ()) l
           cells
       with
      | Error msg ->
          Alcotest.(check bool)
            "error mentions staleness" true
            (String.length msg >= 5 && String.sub msg 0 5 = "stale")
      | Ok _ -> Alcotest.fail "stale trace accepted under ?expect");
      match Replay_sweep.replay_cells ~expect:(tiny_config ()) l cells with
      | Ok r ->
          Alcotest.(check int) "every cell" (List.length cells) (List.length r)
      | Error e -> Alcotest.failf "matching ?expect refused: %s" e)

(* Parallel replay must be byte-identical to serial. *)
let parallel_replay_test () =
  with_temp_trace (fun trace ->
      ignore (record_tiny trace);
      let l = Result.get_ok (Engine.load trace) in
      let cells = Replay_sweep.grid () in
      let sims jobs =
        match Replay_sweep.replay_cells ~jobs l cells with
        | Ok r ->
            List.map
              (fun c -> (c.Replay_sweep.r_cell, c.Replay_sweep.r_sim))
              r
        | Error e -> Alcotest.failf "replay (jobs=%d): %s" jobs e
      in
      if sims 1 <> sims 4 then
        Alcotest.fail "parallel replay differs from serial")

(* --- The name table and its header inverse ----------------------------- *)

let name_table_test () =
  List.iter
    (fun c ->
      let name = Toolchain.caching_name c in
      match Toolchain.caching_of_name name with
      | Some c' when c' = c -> ()
      | _ -> Alcotest.failf "caching_of_name %s does not round-trip" name)
    Toolchain.systems;
  Alcotest.(check (list string))
    "every system once"
    [ "baseline"; "swapram"; "block"; "checkpoint" ]
    (List.map Toolchain.caching_name Toolchain.systems);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        ("placement round trip: " ^ Toolchain.placement_name p)
        true
        (Toolchain.placement_of_name (Toolchain.placement_name p) = Some p))
    Toolchain.(placements);
  Alcotest.(check (list string))
    "placement keys"
    [ "unified"; "standard"; "code-sram"; "all-sram"; "split" ]
    (List.map Toolchain.placement_key Toolchain.placements);
  Alcotest.(check bool) "unknown system" true
    (Toolchain.caching_of_name "nope" = None)

(* [config_of_header] inverts the header of each tiny golden recording,
   and of a tiny checkpoint one, to its configuration, and refuses
   unknown names with an [Error]. A checkpoint header names the
   Standard placement the runtime is built with, not the configured
   one. *)
let config_of_header_test () =
  let find name =
    if name = tiny_bench.Workloads.Bench_def.name then Some tiny_bench
    else Workloads.Suite.find name
  in
  List.iter
    (fun system ->
      with_temp_trace (fun trace ->
          ignore (record_tiny ~system trace);
          let h = Result.get_ok (Trace_file.read_header trace) in
          Alcotest.(check string)
            (system ^ ": header names the built placement")
            (Toolchain.placement_name
               (if system = "checkpoint" then Toolchain.Standard
                else Toolchain.Unified))
            h.Trace_file.placement;
          (match Toolchain.config_of_header ~find h with
          | Ok c ->
              Alcotest.(check int)
                (system ^ ": fingerprint")
                (Toolchain.config_fingerprint (tiny_config ~system ()))
                (Toolchain.config_fingerprint c);
              Alcotest.(check int)
                (system ^ ": header fingerprint")
                h.Trace_file.fingerprint
                (Toolchain.config_fingerprint c)
          | Error e -> Alcotest.failf "%s: %s" system e);
          List.iter
            (fun (what, h) ->
              match Toolchain.config_of_header ~find h with
              | Error _ -> ()
              | Ok _ -> Alcotest.failf "%s: %s accepted" system what)
            [
              ("unknown system", { h with Trace_file.system = "nope" });
              ("unknown placement", { h with Trace_file.placement = "nope" });
              ("unknown benchmark", { h with Trace_file.benchmark = "nope" });
              ("unknown frequency", { h with Trace_file.frequency_mhz = 16 });
              ( "foreign fingerprint",
                { h with Trace_file.fingerprint = h.Trace_file.fingerprint + 1 }
              );
            ]))
    (List.map fst golden_traces @ [ "checkpoint" ])

(* --- Decode fuzzing ------------------------------------------------------ *)

(* Three instructions that follow the timing rule of [roundtrip_header]
   (3 wait states, 1 contention cycle), so each is recorded as a
   template definition on first sight and as a templated record after:
   two fetches with a data read, a write and a call (hit bits and
   addresses vary with [i]), then a fetch with a return, then an SRAM
   fetch. *)
let templated_events i =
  let fetch ?(hit = true) addr =
    Trace.Mem_access { addr; cls = Trace.Fram_read { hit; ifetch = true } }
  in
  let stall stall = Trace.Cycles { unstalled = 0; stall } in
  let hit = i land 1 = 0 in
  [
    Trace.Instr { pc = 0x5000; source = Trace.App_fram };
    fetch 0x5000;
    fetch ~hit:false 0x5002;
    stall 4;
    Trace.Mem_access
      { addr = 0x6000 + (2 * (i mod 7)); cls = Trace.Fram_read { hit; ifetch = false } };
    stall (if hit then 1 else 4);
    Trace.Mem_access { addr = 0x2100 + (i mod 5); cls = Trace.Sram_write };
    Trace.Call { target = 0x4500 + (4 * (i mod 3)) };
    Trace.Cycles { unstalled = 5; stall = 0 };
    Trace.Instr { pc = 0x5004; source = Trace.App_fram };
    fetch ~hit 0x5004;
  ]
  @ (if hit then [] else [ stall 3 ])
  @ [
    Trace.Return;
    Trace.Cycles { unstalled = 3; stall = 0 };
    Trace.Instr { pc = 0x2000; source = Trace.App_sram };
    Trace.Mem_access { addr = 0x2000; cls = Trace.Sram_read { ifetch = true } };
    Trace.Cycles { unstalled = 1; stall = 0 };
  ]

(* A trace over several read-buffer chunks (64 KiB), so damage lands
   before, on and after refills: [templated_events] and
   [sample_events] repeated, each repetition closed by a fresh phase
   name, i.e. an interleaved string definition. One name is longer
   than a chunk, so at least one definition spans a refill. The first
   repetition defines the templates; every later one opens with their
   records, right after the previous phase name. *)
let fuzz_bytes =
  lazy
    (let events =
       List.concat
         (List.init 5000 (fun i ->
              let name =
                if i = 2500 then String.make 100_000 'p'
                else Printf.sprintf "phase-%d" i
              in
              templated_events i @ sample_events
              @ [ Trace.Runtime_event (Trace.Phase { name }) ]))
     in
     with_temp_trace (fun path ->
         record_events path events;
         let data = read_file path in
         assert (String.length data > 2 * 65536);
         match decode_all path with
         | Ok (_, decoded, _) when List.map fst decoded = events ->
             data
         | _ -> failwith "the multi-chunk fuzz trace does not round-trip"))

(* Where the fuzz trace's templated parts are: the first repetition,
   which holds the template definitions, starts after the preamble and
   header; the templated records of each later repetition follow the
   previous repetition's phase name. *)
let fuzz_landmarks =
  lazy
    (let data = Lazy.force fuzz_bytes in
     let header_end =
       10
       + (Char.code data.[6]
         lor (Char.code data.[7] lsl 8)
         lor (Char.code data.[8] lsl 16))
     in
     let phases = ref [] in
     let rec scan from =
       match String.index_from_opt data from 'p' with
       | Some i when i + 6 <= String.length data ->
           if String.sub data i 6 = "phase-" then phases := (i + 6) :: !phases;
           scan (i + 1)
       | _ -> ()
     in
     scan header_end;
     (header_end, Array.of_list (List.rev !phases)))

(* Offsets of the fuzz trace: anywhere, in the header, within a few
   bytes of a chunk boundary, within 32 bytes of where the reader tops
   up its window, inside the template definitions, or inside the
   templated records after a phase name. The window slides at the
   first record boundary at or past each multiple of 64 KiB, at most
   192 bytes after it, and reads on from 192 bytes past it; the
   chunk arms cover either side of that span. Delayed so the trace is
   only built when a fuzz test runs. *)
let gen_offset =
  QCheck2.Gen.delay (fun () ->
      let open QCheck2.Gen in
      let n = String.length (Lazy.force fuzz_bytes) in
      let header_end, phases = Lazy.force fuzz_landmarks in
      let near_chunk lo hi =
        let* k = int_range 1 (n / 65536) and* d = int_range lo hi in
        return (min (n - 1) ((k * 65536) + d))
      in
      oneof
        [
          int_range 0 (n - 1);
          int_range 0 400;
          near_chunk (-3) 3;
          near_chunk (-32) 256;
          int_range header_end (header_end + 160);
          (let* k = int_range 0 (Array.length phases - 1)
           and* d = int_range 0 40 in
           return (min (n - 1) (phases.(k) + d)));
        ])

type damage = Cut of int | Flips of (int * int) list

let apply_damage data = function
  | Cut n -> String.sub data 0 n
  | Flips flips ->
      let b = Bytes.of_string data in
      List.iter
        (fun (pos, x) ->
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor x)))
        flips;
      Bytes.to_string b

let print_damage = function
  | Cut n -> Printf.sprintf "cut at %d" n
  | Flips l ->
      String.concat ", "
        (List.map (fun (pos, x) -> Printf.sprintf "0x%02X at %d" x pos) l)

(* Every reader over [path], each required to return rather than raise:
   the header reader, the event loop (through [iter]), [Engine.load],
   the MRC rebuilt from what it loaded and [Engine.replay_metrics]. The
   last two size tables from recorded units and homes. The event loop,
   [Engine.load] and [Engine.replay_metrics] run twice, with templated
   instructions whole and expanded, and must give the same result,
   error for error. Returns the header and the expanded results, and
   what a whole-instruction sink saw. *)
let decode_results path =
  let guard what f =
    match f () with
    | r -> r
    | exception e ->
        QCheck2.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)
  in
  let same what a b =
    if a <> b then
      QCheck2.Test.fail_reportf "%s: whole and expanded instructions differ" what
  in
  let header =
    guard "read_header" (fun () ->
        Trace_file.read_header path |> Result.map ignore)
  in
  let events =
    guard "iter" (fun () ->
        Trace_file.iter path ~make:(fun _ -> Trace.event_sink ignore)
        |> Result.map ignore)
  in
  let whole, seen = guard "iter (whole)" (fun () -> decode_whole path) in
  same "iter" (Result.map ignore whole) events;
  let load = guard "Engine.load" (fun () -> Engine.load path) in
  same "Engine.load" load
    (guard "Engine.load (expanded)" (fun () -> Engine.load_through expanded path));
  Result.iter (fun l -> ignore (guard "Engine.mrc" (fun () -> Engine.mrc l))) load;
  let csv through =
    guard "Engine.replay_metrics" (fun () ->
        Engine.replay_metrics ~through path
        |> Result.map (fun (m, _) -> Observe.Metrics.render_csv m))
  in
  same "Engine.replay_metrics" (csv Fun.id) (csv expanded);
  (header, events, load, seen)

(* What a whole-instruction sink sees of the undamaged fuzz trace. *)
let fuzz_seen =
  lazy
    (with_temp_trace (fun path ->
         write_file path (Lazy.force fuzz_bytes);
         snd (decode_whole path)))

let prop_damaged_trace_is_typed_error =
  let gen =
    let open QCheck2.Gen in
    oneof
      [
        map (fun c -> Cut c) gen_offset;
        map
          (fun l -> Flips l)
          (list_size (int_range 1 4) (pair gen_offset (int_range 1 255)));
      ]
  in
  QCheck2.Test.make ~count:150
    ~name:"damaged trace decodes to Ok or a typed error, never raises"
    ~print:print_damage gen (fun damage ->
      with_temp_trace (fun path ->
          write_file path (apply_damage (Lazy.force fuzz_bytes) damage);
          ignore (decode_results path);
          true))

let prop_strict_prefix_is_error =
  QCheck2.Test.make ~count:150 ~name:"every strict prefix of a trace is an error"
    ~print:string_of_int gen_offset (fun cut ->
      with_temp_trace (fun path ->
          write_file path (String.sub (Lazy.force fuzz_bytes) 0 cut);
          let expected =
            if cut < 4 then Trace_file.Bad_magic else Trace_file.Truncated ""
          in
          let same_kind = function
            | Error e -> (
                match (e, expected) with
                | Trace_file.Bad_magic, Trace_file.Bad_magic
                | Trace_file.Truncated _, Trace_file.Truncated _ ->
                    true
                | _ -> false)
            | Ok () -> false
          in
          let _, events, load, seen = decode_results path in
          if not (is_prefix (seen, Lazy.force fuzz_seen)) then
            QCheck2.Test.fail_reportf
              "a whole-instruction sink saw what the trace does not hold";
          same_kind events
          && same_kind
               (match load with
               | Ok _ -> Ok ()
               | Error (Engine.Format_error e) -> Error e
               | Error (Engine.Model_error msg) ->
                   QCheck2.Test.fail_reportf "model error: %s" msg)))

(* The last event of a trace is decoded out of the reader's zeroed slack
   when the file is cut inside it: the one place the decoder reads past
   the valid bytes. Every cut in the last 64 bytes of each golden trace
   and of the multi-chunk fuzz trace must be [Truncated] from the event
   loop, [Engine.load] and [Engine.replay_metrics] alike, with templated
   instructions whole and expanded, and the events and records the sinks
   saw before the error must be the uncut trace's own: none is made up
   from the slack. *)
let tail_truncation_test () =
  let traces =
    ("fuzz", Lazy.force fuzz_bytes)
    :: List.map (fun (_, file) -> (file, read_file (golden_path file)))
         golden_traces
  in
  let expect name cut what = function
    | Error (Trace_file.Truncated _) -> ()
    | Error e ->
        Alcotest.failf "%s cut at %d: %s gave %s" name cut what
          (Trace_file.error_message e)
    | Ok () -> Alcotest.failf "%s cut at %d: %s decoded" name cut what
  in
  let engine = function
    | Ok _ -> Ok ()
    | Error (Engine.Format_error e) -> Error e
    | Error (Engine.Model_error msg) -> Error (Trace_file.Corrupt msg)
  in
  List.iter
    (fun (name, data) ->
      let n = String.length data in
      let all, all_whole =
        with_temp_trace (fun path ->
            write_file path data;
            (snd (decode_events path), snd (decode_whole path)))
      in
      for cut = n - 64 to n - 1 do
        with_temp_trace (fun path ->
            write_file path (String.sub data 0 cut);
            let result, seen = decode_events path in
            expect name cut "iter" (Result.map ignore result);
            if not (is_prefix (seen, all)) then
              Alcotest.failf "%s cut at %d: the sink saw an event the trace \
                              does not hold" name cut;
            let result, seen = decode_whole path in
            expect name cut "iter (whole)" (Result.map ignore result);
            if not (is_prefix (seen, all_whole)) then
              Alcotest.failf "%s cut at %d: the whole-instruction sink saw a \
                              record the trace does not hold" name cut;
            expect name cut "Engine.load" (engine (Engine.load path));
            expect name cut "Engine.load (expanded)"
              (engine (Engine.load_through expanded path));
            expect name cut "Engine.replay_metrics"
              (engine (Engine.replay_metrics path));
            expect name cut "Engine.replay_metrics (expanded)"
              (engine (Engine.replay_metrics ~through:expanded path)))
      done)
    traces

(* --- Live sampler = replayed sampler ------------------------------------- *)

(* The same random events through [Metrics.sink] live (hook answers from
   [feed]) and through a recorded trace and [Engine.replay_metrics], at
   function and at line granularity; small windows so several close.
   The 16-byte lines are finer than [ifetch_home]'s 64-byte homes, so a
   replay that bucketed the address instead of its recorded home would
   show. *)
let prop_live_sampler_equals_replay =
  QCheck2.Test.make ~count:100
    ~name:"live sampler = replayed sampler (random events)" gen_events
    (fun events ->
      let window = 256 in
      List.for_all
        (fun granularity ->
          let header = { roundtrip_header with Trace_file.granularity } in
          let reuse, sizes =
            match granularity with
            | Trace_file.Functions sizes -> (Observe.Metrics.Functions, sizes)
            | Trace_file.Lines n -> (Observe.Metrics.Lines n, [||])
          in
          let live =
            Observe.Metrics.create
              {
                Observe.Metrics.window_cycles = window;
                buckets = 48;
                reuse;
                config_budget = header.Trace_file.budget;
              }
              ~params:Msp430.Energy.point_24mhz
              ~fram:(Platform.fram_base, Platform.fram_base + Platform.fram_size)
              ~sram:(Platform.sram_base, Platform.sram_base + Platform.sram_size)
              ~fid_size:(fun fid ->
                if fid >= 0 && fid < Array.length sizes then sizes.(fid)
                else 0)
          in
          List.iter (feed (Observe.Metrics.sink live)) events;
          with_temp_trace (fun path ->
              record_events ~header path events;
              match Engine.replay_metrics ~window path with
              | Error e ->
                  QCheck2.Test.fail_reportf "replay_metrics: %s"
                    (Engine.error_message e)
              | Ok (replayed, _) ->
                  List.for_all
                    (fun (what, render) ->
                      String.equal (render live) (render replayed)
                      || QCheck2.Test.fail_reportf "%s diverges" what)
                    [
                      ("csv", Observe.Metrics.render_csv);
                      ("mrc", fun m -> Observe.Metrics.render_mrc m);
                      ("heatmaps", fun m -> Observe.Metrics.render_heatmaps m);
                    ]))
        [ roundtrip_header.Trace_file.granularity; Trace_file.Lines 16 ])

(* The frequency is checked on the header alone: with an unsupported one
   the answer is a model error even when the event stream is cut short. *)
let unsupported_frequency_test () =
  with_temp_trace (fun path ->
      record_events
        ~header:{ roundtrip_header with Trace_file.frequency_mhz = 16 }
        path sample_events;
      let full = read_file path in
      List.iter
        (fun data ->
          write_file path data;
          match Engine.replay_metrics path with
          | Error (Engine.Model_error _) -> ()
          | Error e ->
              Alcotest.failf "expected a model error, got %s"
                (Engine.error_message e)
          | Ok _ -> Alcotest.fail "replayed a 16 MHz trace")
        [ full; String.sub full 0 (String.length full - 2) ])

(* A string-definition length whose varint decodes negative (bit 62
   set) is corrupt input, not a [String.sub] exception. *)
let negative_string_length_test () =
  let data = sample_bytes () in
  let hdr_len =
    Char.code data.[6]
    lor (Char.code data.[7] lsl 8)
    lor (Char.code data.[8] lsl 16)
    lor (Char.code data.[9] lsl 24)
  in
  let preamble = String.sub data 0 (10 + hdr_len) in
  with_temp_trace (fun path ->
      write_file path (preamble ^ "\x1D" ^ String.make 8 '\x80' ^ "\x40");
      match decode_all path with
      | Error (Trace_file.Corrupt _) -> ()
      | Error e ->
          Alcotest.failf "expected corrupt, got %s" (Trace_file.error_message e)
      | Ok _ -> Alcotest.fail "decoded a negative string length")

(* A unit or home past what the header allows used to decode fine and
   then make [Engine.mrc] and [Engine.replay_metrics] size a table from
   it (out of memory at 2^33 units). Each damaged id is the trace's
   only oddity; every reader must now call it corrupt. *)
let out_of_range_ids_test () =
  let traces =
    [
      ( "call unit 2^33, two functions",
        Trace_file.Functions [| 100; 220 |],
        fun (s : Trace.sink) -> s.Trace.call 0x4500 (1 lsl 33) );
      ( "call unit past 0x10000 / 64",
        Trace_file.Lines 64,
        fun s -> s.Trace.call 0x4500 ((0x10000 / 64) + 1) );
      ( "ifetch home 2^36, 64-byte lines",
        Trace_file.Lines 64,
        fun s -> s.Trace.fram_ifetch false 0x4400 (1 lsl 36) );
      ( "negative sram ifetch home",
        Trace_file.Lines 64,
        fun s -> s.Trace.sram_ifetch 0x2000 (-2) );
    ]
  in
  List.iter
    (fun (what, granularity, damaged) ->
      with_temp_trace (fun path ->
          let w =
            Trace_file.create_writer path
              { roundtrip_header with Trace_file.granularity }
          in
          let s = Trace_file.sink w in
          s.Trace.instr 0 0x4400;
          damaged s;
          s.Trace.cycles 1 0;
          Trace_file.close_writer w;
          let corrupt = function
            | Error (Engine.Format_error (Trace_file.Corrupt _)) -> true
            | _ -> false
          in
          Alcotest.(check bool)
            (what ^ ": iter") true
            (match Trace_file.iter path ~make:(fun _ -> Trace.event_sink ignore) with
            | Error (Trace_file.Corrupt _) -> true
            | _ -> false);
          Alcotest.(check bool)
            (what ^ ": Engine.load") true
            (corrupt (Engine.load path));
          Alcotest.(check bool)
            (what ^ ": Engine.replay_metrics") true
            (corrupt (Engine.replay_metrics path))))
    traces

(* The superblock engine records observed runs too: the same
   configuration recorded under each engine must give the same file,
   byte for byte — the three golden configurations and all 15
   exec-suite cells at seed 1. For two cells the profiler's folded
   stacks and the metrics CSV of an observed run must agree as well. *)
let same_file a b =
  let chunk = 1 lsl 16 in
  In_channel.with_open_bin a (fun ia ->
      In_channel.with_open_bin b (fun ib ->
          In_channel.length ia = In_channel.length ib
          &&
          let ba = Bytes.create chunk and bb = Bytes.create chunk in
          let rec go () =
            let n = In_channel.input ia ba 0 chunk in
            n = 0
            || (In_channel.really_input ib bb 0 n = Some ()
               && Bytes.sub ba 0 n = Bytes.sub bb 0 n
               && go ())
          in
          go ()))

let engines_record_identical_test () =
  let engines = Msp430.Cpu.[ Reference; Superblock ] in
  let check_recording what config =
    with_temp_trace (fun a ->
        with_temp_trace (fun b ->
            let record path engine =
              match
                Toolchain.run_recorded ~trace:path
                  { config with Toolchain.engine }
              with
              | Toolchain.Completed _ -> ()
              | _ -> Alcotest.failf "%s: recording did not complete" what
            in
            List.iter2 record [ a; b ] engines;
            Alcotest.(check bool) (what ^ ": recordings identical") true
              (same_file a b)))
  in
  List.iter
    (fun system ->
      check_recording ("golden/" ^ system) (tiny_config ~system ()))
    [ "swapram"; "block"; "baseline" ];
  List.iter
    (fun b ->
      List.iter
        (fun system ->
          check_recording
            (b.Workloads.Bench_def.name ^ "/" ^ system)
            (config_for b system))
        [ "baseline"; "swapram"; "block" ])
    Workloads.Suite.[ crc; rc4; aes; bitcount; rsa ];
  List.iter
    (fun (b, system) ->
      let what = b.Workloads.Bench_def.name ^ "/" ^ system in
      let observed engine =
        match
          Toolchain.run ~observe:Toolchain.metrics_observe
            { (config_for b system) with Toolchain.engine }
        with
        | Toolchain.Completed { Toolchain.observation = Some o; _ } ->
            ( Observe.Profiler.folded_lines o.Toolchain.o_profiler,
              Observe.Metrics.render_csv (Option.get o.Toolchain.o_metrics) )
        | _ -> Alcotest.failf "%s: observed run did not complete" what
      in
      match List.map observed engines with
      | [ (folded_r, csv_r); (folded_s, csv_s) ] ->
          Alcotest.(check (list string)) (what ^ ": folded stacks") folded_r
            folded_s;
          Alcotest.(check string) (what ^ ": metrics CSV") csv_r csv_s
      | _ -> assert false)
    Workloads.Suite.[ (crc, "swapram"); (aes, "block") ]

(* --- Version 1 traces ------------------------------------------------------ *)

(* A trace in the version-1 layout (one tagged event per event) is a
   typed version error for every reader, never a misdecode. *)
let v1_trace_test () =
  let path = golden_path "replay_tiny.v1.trace" in
  let expect what = function
    | Error (Trace_file.Version_mismatch { found = 1; expected = 2 }) -> ()
    | Error e ->
        Alcotest.failf "%s: expected a version 1 mismatch, got %s" what
          (Trace_file.error_message e)
    | Ok () -> Alcotest.failf "%s: decoded a version 1 trace" what
  in
  let engine = function
    | Ok _ -> Ok ()
    | Error (Engine.Format_error e) -> Error e
    | Error (Engine.Model_error msg) -> Error (Trace_file.Corrupt msg)
  in
  expect "read_header" (Result.map ignore (Trace_file.read_header path));
  expect "iter"
    (Result.map ignore
       (Trace_file.iter path ~make:(fun _ -> Trace.event_sink ignore)));
  expect "Engine.load" (engine (Engine.load path));
  expect "Engine.replay_metrics" (engine (Engine.replay_metrics path))

(* --- Templates: departures round-trip --------------------------------- *)

(* The template instruction at 0x4400 under [roundtrip_header]'s timing
   (3 wait states, 1 contention cycle): a hit and a missed fetch, an
   FRAM data read and its stall, an SRAM write, a call and its cycles. *)
let base (s : Trace.sink) =
  s.Trace.instr 0 0x4400;
  s.Trace.fram_ifetch true 0x4400 0x4400;
  s.Trace.fram_ifetch false 0x4402 0x4402;
  s.Trace.cycles 0 4;
  s.Trace.fram_read false 0x6000;
  s.Trace.cycles 0 4;
  s.Trace.sram_write 0x2100;
  s.Trace.call 0x4500 3;
  s.Trace.cycles 3 0

(* A long template: one fetch and ten FRAM reads, so hit bits spill
   past the tag into extra bytes. *)
let long_reads ?(from = 0) (s : Trace.sink) =
  s.Trace.instr 2 0x7000;
  s.Trace.fram_ifetch true 0x7000 0x7000;
  for k = 0 to 9 do
    let hit = (k + from) mod 3 <> 0 in
    s.Trace.fram_read hit (0x6100 + (2 * k));
    s.Trace.cycles 0 ((if hit then 0 else 3) + 1)
  done;
  s.Trace.cycles 2 0

(* An SRAM slot at 0x2000 hosting the block homed at [home]. *)
let slot home (s : Trace.sink) =
  s.Trace.instr 1 0x2000;
  s.Trace.sram_ifetch 0x2000 home;
  s.Trace.sram_ifetch 0x2002 (home + 2);
  s.Trace.cycles 2 0

let departure_cases : (string * (Trace.sink -> unit) list) list =
  [
    ( "a different fetch count",
      [
        base;
        (fun s ->
          s.Trace.instr 0 0x4400;
          s.Trace.fram_ifetch true 0x4400 0x4400;
          s.Trace.cycles 1 0);
        base;
        (fun s ->
          s.Trace.instr 0 0x4400;
          s.Trace.fram_ifetch true 0x4400 0x4400;
          s.Trace.fram_ifetch false 0x4402 0x4402;
          s.Trace.cycles 0 4;
          s.Trace.fram_ifetch true 0x4404 0x4404;
          s.Trace.cycles 0 1;
          s.Trace.cycles 3 0);
        base;
      ] );
    ( "a runtime event inside an instruction",
      [
        base;
        (fun s ->
          s.Trace.instr 0 0x4400;
          s.Trace.fram_ifetch true 0x4400 0x4400;
          s.Trace.fram_ifetch false 0x4402 0x4402;
          s.Trace.cycles 0 4;
          s.Trace.fram_read true 0x6004;
          s.Trace.cycles 0 1;
          s.Trace.runtime (Trace.Miss_enter { runtime = "swapram" });
          s.Trace.sram_write 0x2100;
          s.Trace.runtime
            (Trace.Miss_exit { runtime = "swapram"; disposition = "cached"; fid = 2 });
          s.Trace.call 0x4500 3;
          s.Trace.cycles 3 0);
        base;
        (fun s ->
          base s;
          s.Trace.runtime (Trace.Block_load { nvm = 0x4400 }));
        base;
        long_reads;
        (fun s ->
          s.Trace.instr 2 0x7000;
          s.Trace.fram_ifetch true 0x7000 0x7000;
          for k = 0 to 6 do
            s.Trace.fram_read false (0x6100 + (2 * k));
            s.Trace.cycles 0 4
          done;
          s.Trace.runtime (Trace.Eviction { fid = 5 });
          s.Trace.cycles 2 0);
        long_reads ~from:1;
        base;
      ] );
    ( "a stall that breaks the rule",
      [
        base;
        (fun s ->
          s.Trace.instr 0 0x4400;
          s.Trace.fram_ifetch true 0x4400 0x4400;
          s.Trace.fram_ifetch false 0x4402 0x4402;
          s.Trace.cycles 0 5;
          s.Trace.cycles 3 0);
        base;
        (fun s ->
          (* the stall owed by the missed fetch never comes *)
          s.Trace.instr 0 0x4400;
          s.Trace.fram_ifetch true 0x4400 0x4400;
          s.Trace.fram_ifetch false 0x4402 0x4402;
          s.Trace.fram_read false 0x6000;
          s.Trace.cycles 0 4;
          s.Trace.cycles 3 0);
        base;
        (fun s ->
          (* a stall after a hit that owes none *)
          s.Trace.instr 0 0x4400;
          s.Trace.fram_ifetch true 0x4400 0x4400;
          s.Trace.cycles 0 1;
          s.Trace.cycles 3 0);
        base;
        (fun s ->
          (* stall and unstalled cycles in one event *)
          s.Trace.instr 0 0x4400;
          s.Trace.fram_ifetch true 0x4400 0x4400;
          s.Trace.fram_ifetch false 0x4402 0x4402;
          s.Trace.cycles 3 4);
        base;
      ] );
    ( "a slot that re-hosts another home",
      [
        slot 0x8000;
        slot 0x8000;
        slot 0x9000;
        slot 0x9000;
        slot 0x8000;
        slot 0x9000;
        (fun s ->
          (* the same pc and home from another source *)
          s.Trace.instr 2 0x2000;
          s.Trace.sram_ifetch 0x2000 0x8000;
          s.Trace.sram_ifetch 0x2002 0x8002;
          s.Trace.cycles 2 0);
        slot 0x8000;
        base;
      ] );
    ( "events before the first instruction",
      [
        (fun s ->
          s.Trace.runtime (Trace.Phase { name = "boot" });
          s.Trace.cycles 5 0;
          s.Trace.fram_read true 0x6000;
          s.Trace.sram_ifetch 0x2000 0x2000;
          s.Trace.call 0x4400 (-1));
        base;
        base;
        (fun s ->
          s.Trace.instr 0 0x4400;
          s.Trace.runtime (Trace.Phase { name = "mid" }));
        base;
      ] );
  ]

(* Each case round-trips event for event with its answers, and the
   instructions back on the template after the departures are records:
   200 more of the case's last instruction ([base] or a slot) add at most 11 bytes apiece
   ([base]'s tag, three 3-byte deltas and a unit), where its tagged
   events take 27, plus a few for the first one's template id and the
   end marker's longer count. *)
let departure_test () =
  List.iter
    (fun (what, stream) ->
      let size stream =
        with_temp_trace (fun path ->
            let w = Trace_file.create_writer path roundtrip_header in
            let s = Trace_file.sink w in
            List.iter (fun f -> f s) stream;
            Trace_file.close_writer w;
            let sink, fed = capture () in
            List.iter (fun f -> f sink) stream;
            (match decode_events path with
            | Ok (_, count), decoded ->
                if count <> List.length (fed ()) then
                  Alcotest.failf "%s: %d events decoded of %d" what count
                    (List.length (fed ()));
                if decoded <> fed () then
                  Alcotest.failf "%s: the decoded events differ" what
            | Error e, _ ->
                Alcotest.failf "%s: %s" what (Trace_file.error_message e));
            String.length (read_file path))
      in
      let again = List.nth stream (List.length stream - 1) in
      let grown = size (stream @ List.init 200 (fun _ -> again)) - size stream in
      if grown > (11 * 200) + 4 then
        Alcotest.failf "%s: 200 template instructions took %d bytes" what grown)
    departure_cases

(* --- Templates: exactness on live runs ------------------------------------ *)

(* The live event stream of a recording: the observation's sink is
   swapped for a capturing one, which [record_prepared] tees next to
   the writer. [None] when the program does not fit the system. *)
let record_live config trace =
  match Toolchain.prepare ~observe:Toolchain.default_observe config with
  | Error _ -> None
  | Ok p -> (
      let o = Option.get p.Toolchain.p_observation in
      let sink, events = capture () in
      let p =
        { p with Toolchain.p_observation = Some { o with Toolchain.o_sink = sink } }
      in
      match Toolchain.record_prepared ~trace p with
      | Toolchain.Completed _ -> Some (events ())
      | Toolchain.Crashed o ->
          QCheck2.Test.fail_reportf "crashed: %s" (Msp430.Cpu.outcome_name o)
      | Toolchain.Did_not_fit msg -> QCheck2.Test.fail_reportf "%s" msg)

(* Random programs over the three systems, recorded under each CPU
   engine: the decoded recording is exactly the reference engine's live
   stream, event for event and answer for answer. *)
let prop_recording_is_live_stream =
  QCheck2.Test.make ~count:6
    ~name:"decoded recording = reference engine's live stream (random programs)"
    ~print:(fun s -> s) Test_differential.gen_program (fun source ->
      let b =
        {
          Workloads.Bench_def.name = "qcheck";
          short = "QCK";
          source = (fun _ -> source);
          fits_data_in_sram = false;
        }
      in
      List.for_all
        (fun caching ->
          let config engine =
            { (Toolchain.default_config b) with Toolchain.caching; engine }
          in
          with_temp_trace (fun trace ->
              match record_live (config Msp430.Cpu.Reference) trace with
              | None -> true
              | Some live ->
                  List.for_all
                    (fun engine ->
                      with_temp_trace (fun trace ->
                          ignore (record_live (config engine) trace);
                          match decode_events trace with
                          | Ok (_, count), decoded ->
                              (count = List.length live && decoded = live)
                              || QCheck2.Test.fail_reportf
                                   "%s under %s: the decoded recording differs"
                                   (Toolchain.caching_name caching)
                                   (Msp430.Cpu.engine_name engine)
                          | Error e, _ ->
                              QCheck2.Test.fail_reportf "%s"
                                (Trace_file.error_message e)))
                    Msp430.Cpu.[ Reference; Superblock ]))
        [
          Toolchain.Baseline;
          Toolchain.Swapram_cache
            { Swapram.Config.default_options with Swapram.Config.cache_size = 512 };
          Toolchain.Block_cache Blockcache.Config.default_options;
        ])

(* --- Runtime answers at the emit site -------------------------------------- *)

(* A bare sink attached to a prepared system, with no observation and
   no recording, gets the runtime's answers from the emit sites: the
   same instruction-fetch homes and call units, event for event, as
   the decoded golden recording of that configuration. [answered]
   picks an event that carries a runtime's answer, so the comparison
   cannot pass on the machine's own answers alone. *)
let bare_sink_answers_test () =
  let ifetch_home = function
    | ( Trace.Mem_access
          { addr; cls = Trace.Fram_read { ifetch = true; _ } | Trace.Sram_read { ifetch = true } },
        home ) ->
        home <> addr
    | _ -> false
  in
  let call_unit = function Trace.Call _, u -> u >= 0 | _ -> false in
  List.iter
    (fun (system, file, answered) ->
      match Toolchain.prepare (tiny_config ~system ()) with
      | Error msg -> Alcotest.failf "%s: %s" system msg
      | Ok p -> (
          let sink, events = capture () in
          let cpu = p.Toolchain.p_system.Platform.cpu in
          Trace.set_sink (Msp430.Cpu.stats cpu) (Some sink);
          Toolchain.boot p;
          (match Msp430.Cpu.run cpu with
          | Msp430.Cpu.Halted -> ()
          | o -> Alcotest.failf "%s: %s" system (Msp430.Cpu.outcome_name o));
          let live = events () in
          match decode_events (golden_path file) with
          | Error e, _ -> Alcotest.failf "%s: %s" system (Trace_file.error_message e)
          | Ok _, recorded ->
              if not (List.exists answered live) then
                Alcotest.failf "%s: no event carries a runtime answer" system;
              if live <> recorded then
                Alcotest.failf "%s: the bare sink's %d events differ from the %d recorded"
                  system (List.length live) (List.length recorded)))
    [ ("block", "replay_tiny_block.trace", ifetch_home); ("swapram", "replay_tiny.trace", call_unit) ]

(* --- Whole templated instructions = expanded ones ------------------------ *)

(* The consumers that take a templated instruction whole against the
   same consumers with it expanded, on one trace: [Engine.load] on
   every loaded field; [Engine.replay_metrics]'s CSV, heatmaps and MRC
   at windows of 7 cycles (most instructions cross a window end), 256
   and 65536; and [iter], whose records, expanded, are the events of
   an expanding sink. Returns what differs. *)
let whole_differences path =
  let load =
    if Engine.load path = Engine.load_through expanded path then []
    else [ "Engine.load" ]
  in
  let renders =
    [
      ("csv", Observe.Metrics.render_csv);
      ("heatmaps", Observe.Metrics.render_heatmaps);
      ("mrc", fun m -> Observe.Metrics.render_mrc m);
    ]
  in
  let metrics =
    List.concat_map
      (fun window ->
        let differs what = [ Printf.sprintf "%s at window %d" what window ] in
        match
          ( Engine.replay_metrics ~window path,
            Engine.replay_metrics ~through:expanded ~window path )
        with
        | Ok (m, _), Ok (mx, _) ->
            List.concat_map
              (fun (what, render) ->
                if String.equal (render m) (render mx) then [] else differs what)
              renders
        | Error e, Error ex when e = ex -> []
        | _ -> differs "replay_metrics result")
      [ 7; 256; 65536 ]
  in
  let events_result, events = decode_events path in
  let whole_result, seen = decode_whole path in
  let iter =
    if whole_result <> events_result then [ "iter result" ]
    else if expand_seen seen <> events then [ "iter records" ]
    else if not (List.exists (function Record _ -> true | Event _ -> false) seen)
    then [ "no templated record" ]
    else []
  in
  load @ metrics @ iter

(* Random programs recorded under the three systems. *)
let prop_whole_equals_expanded =
  QCheck2.Test.make ~count:5
    ~name:"whole templated instructions = expanded (random programs)"
    ~print:(fun s -> s) Test_differential.gen_program (fun source ->
      let b =
        {
          Workloads.Bench_def.name = "qcheck";
          short = "QCK";
          source = (fun _ -> source);
          fits_data_in_sram = false;
        }
      in
      List.for_all
        (fun caching ->
          with_temp_trace (fun trace ->
              match
                Toolchain.run_recorded ~trace
                  { (Toolchain.default_config b) with Toolchain.caching }
              with
              | Toolchain.Completed _ -> (
                  match whole_differences trace with
                  | [] -> true
                  | d ->
                      QCheck2.Test.fail_reportf "%s: %s differ"
                        (Toolchain.caching_name caching)
                        (String.concat ", " d))
              | Toolchain.Did_not_fit _ | Toolchain.Crashed _ -> true))
        [
          Toolchain.Baseline;
          Toolchain.Swapram_cache
            { Swapram.Config.default_options with Swapram.Config.cache_size = 512 };
          Toolchain.Block_cache Blockcache.Config.default_options;
        ])

(* The three golden traces and the multi-chunk fuzz trace. *)
let whole_golden_test () =
  let check name path =
    match whole_differences path with
    | [] -> ()
    | d -> Alcotest.failf "%s: %s differ" name (String.concat ", " d)
  in
  List.iter (fun (_, file) -> check file (golden_path file)) golden_traces;
  with_temp_trace (fun path ->
      write_file path (Lazy.force fuzz_bytes);
      check "fuzz" path)

let suite =
  [
    Alcotest.test_case "format round-trip errors: truncation" `Quick
      truncation_test;
    Alcotest.test_case "format round-trip errors: version mismatch" `Quick
      version_mismatch_test;
    Alcotest.test_case "format round-trip errors: bad magic" `Quick
      bad_magic_test;
    Alcotest.test_case "format round-trip errors: trailing bytes" `Quick
      trailing_bytes_test;
    QCheck_alcotest.to_alcotest prop_format_roundtrip;
    Alcotest.test_case "golden trace snapshot (seed 1)" `Quick
      golden_trace_test;
    Alcotest.test_case "simulate at budget B = execute at cache size B" `Quick
      cross_budget_test;
    Alcotest.test_case "sub-unit budget thrashes under every policy" `Quick
      thrash_test;
    Alcotest.test_case "replayed MRC = executed MRC" `Quick mrc_identity_test;
    Alcotest.test_case "frequency retarget 24 -> 8 MHz = fresh 8 MHz run"
      `Quick frequency_retarget_test;
    Alcotest.test_case "load_cached reloads a rewritten trace" `Quick
      load_cached_rewrite_test;
    Alcotest.test_case "parallel replay = serial replay" `Quick
      parallel_replay_test;
    QCheck_alcotest.to_alcotest prop_record_replay_equals_execute;
    Alcotest.test_case "replay equivalence: Table-2 x {swapram, block}" `Quick
      equivalence_test;
    Alcotest.test_case "format errors: bad unit size" `Quick
      bad_unit_size_test;
    QCheck_alcotest.to_alcotest prop_damaged_trace_is_typed_error;
    QCheck_alcotest.to_alcotest prop_strict_prefix_is_error;
    Alcotest.test_case "every cut in a trace's last 64 bytes is truncated"
      `Quick tail_truncation_test;
    QCheck_alcotest.to_alcotest prop_live_sampler_equals_replay;
    Alcotest.test_case "unsupported recorded frequency is a model error"
      `Quick unsupported_frequency_test;
    Alcotest.test_case "format errors: negative string length" `Quick
      negative_string_length_test;
    Alcotest.test_case "format errors: unit or home out of range" `Quick
      out_of_range_ids_test;
    Alcotest.test_case "both engines record identical traces" `Slow
      engines_record_identical_test;
    Alcotest.test_case "?expect refuses a stale trace" `Quick
      expect_stale_test;
    Alcotest.test_case "system and placement names round-trip" `Quick
      name_table_test;
    Alcotest.test_case "config_of_header inverts headers" `Quick
      config_of_header_test;
    Alcotest.test_case "a version 1 trace is a version mismatch" `Quick
      v1_trace_test;
    Alcotest.test_case "template departures round-trip" `Quick departure_test;
    QCheck_alcotest.to_alcotest prop_recording_is_live_stream;
    Alcotest.test_case "a bare sink gets the runtime's answers" `Quick
      bare_sink_answers_test;
    Alcotest.test_case "whole templated instructions = expanded (golden traces)"
      `Quick whole_golden_test;
    QCheck_alcotest.to_alcotest prop_whole_equals_expanded;
  ]
