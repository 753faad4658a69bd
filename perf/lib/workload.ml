(* The benchmark's four workloads. Each stresses a different stack of
   layers, and each states which layers it leaves idle, so a change to
   one layer should move its own workload and read flat on the others:

   - exec-suite: fresh build + execution of Table-2 benchmarks under
     the three systems (msp430 execution, nothing recorded or replayed);
   - replay-analyze: traces recorded in set-up, then analysed through
     the replay and observe layers (no CPU work in the timed phase);
   - dse-grid: the design-space explorer over recorded traces, on the
     fork pool (sim kernels, objectives, Pareto, pool IPC);
   - campaign: a fault-injection campaign (short injected lives,
     reboots, per-trial rebuilds, oracle digests).

   Every workload is built from a seed, which feeds the benchmark
   sources (exec-suite, replay-analyze, dse-grid) or the campaign's
   trial seeds, so the same seed always gives the same inputs. Modelled
   caches start empty on every run, like the paper's cold boot. *)

open Experiments
module Engine = Replay.Engine
module Json = Observe.Json
module Campaign = Faultinject.Campaign
module Injector = Faultinject.Injector
module Oracle = Faultinject.Oracle
module Bench_def = Workloads.Bench_def
module Suite = Workloads.Suite
module Trace = Msp430.Trace

let span = Spans.with_span

type size = {
  exec_benchmarks : Bench_def.t list;
  trace_benchmarks : Bench_def.t list;  (** recorded by replay-analyze and dse-grid *)
  dse_budgets : int list;
  campaign_samplers : Campaign.sampler list;
  campaign_trials : int;  (** per cell; at most one campaign shard *)
}

(* Sized so one repetition takes a few seconds on a 2-core host and a
   10-second run gets several repetitions to take a median over. The
   four largest Table-2 programs (and their block-cache DNFs) would
   need 16 s per repetition, so exec-suite keeps the five that fit
   every system. *)
let full =
  {
    exec_benchmarks = Suite.[ crc; rc4; aes; bitcount; rsa ];
    trace_benchmarks = Suite.[ rc4; bitcount; rsa ];
    dse_budgets = Dse.default_grid.Dse.g_budgets;
    campaign_samplers = Campaign.all_samplers;
    campaign_trials = 8;
  }

(* A size for tests: every code path, in well under a second each. *)
let tiny =
  {
    exec_benchmarks = [ Suite.rsa ];
    trace_benchmarks = [ Suite.rsa ];
    dse_budgets = [ 512; 1024; 2048 ];
    campaign_samplers = [ Campaign.Uniform ];
    campaign_trials = 2;
  }

let names = [ "exec-suite"; "replay-analyze"; "dse-grid"; "campaign" ]

(* One repetition (or the verification pass): operations attempted,
   how many failed, why, a digest of the deterministic outputs, and the
   host seconds of each named operation (empty when the repetition is
   one indivisible call). *)
type rep = {
  ops : int;
  failed : int;
  errors : string list;
  digest : string;
  times : (string * float) list;
}

type t = {
  setup : unit -> unit;  (** (re)builds the inputs; timed as set-up *)
  rep : unit -> rep;  (** one repetition of the timed phase *)
  verify : unit -> rep;  (** independent check of the last repetition *)
  layer : unit -> (string * float) list;
      (** traced run: this workload's layer-specific metrics *)
  outputs : unit -> (string * Json.t) list;
      (** deterministic results reported beside the metrics *)
  cleanup : unit -> unit;
}

(* Layer-specific per-layer metrics and their units. A workload that
   does not exercise a layer reports 0 work for it. *)
let layer_units =
  [
    ("msp430.minstr_per_s", "M/s");
    ("trace_file.record_mevents_per_s", "M/s");
    ("trace_file.bytes_per_event", "B/event");
    ("replay.load_mevents_per_s", "M/s");
    ("replay.mrc_mrefs_per_s", "M/s");
    ("replay.sim_mrefs_per_s.lru", "M/s");
    ("replay.sim_mrefs_per_s.lfu", "M/s");
    ("replay.sim_mrefs_per_s.cost", "M/s");
    ("replay.ladder_mref_models_per_s.lru", "M/s");
    ("replay.ladder_mref_models_per_s.lfu", "M/s");
    ("replay.ladder_mref_models_per_s.cost", "M/s");
    ("replay.refs", "count");
    ("replay.collapse_ratio", "frac");
    ("replay.beyond_footprint_frac", "frac");
    ("observe.metrics_mevents_per_s", "M/s");
    ("dse.objectives_mpoints_per_s", "M/s");
    ("dse.pareto_mpoints_per_s", "M/s");
    ("parallel.chunks", "count");
    ("parallel.busy_frac", "frac");
    ("parallel.trivial_chunks_per_s", "1/s");
    ("faultinject.reboots_per_trial", "1/trial");
    ("faultinject.livelock_instr_frac", "frac");
    ("msp430.instructions", "count");
    ("msp430.fram_accesses", "count");
    ("msp430.sram_accesses", "count");
    ("msp430.hwcache_hit_rate", "frac");
    ("swapram.misses", "count");
    ("swapram.evictions", "count");
    ("swapram.words_copied", "count");
    ("blockcache.misses", "count");
    ("blockcache.flushes", "count");
  ]

(* --- Helpers ------------------------------------------------------------ *)

let fnv s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let ok_rep ops digest = { ops; failed = 0; errors = []; digest; times = [] }
let failed_rep ops err = { ops; failed = ops; errors = [ err ]; digest = ""; times = [] }

(* Run [f], turning an exception into a failure of all [ops]. *)
let guarded ops f = try f () with e -> failed_rep ops (Printexc.to_string e)

let rate ?(scale = 1e-6) name =
  let t = Spans.total name in
  if t.Spans.seconds > 0. then float_of_int t.Spans.work /. t.Spans.seconds *. scale
  else 0.

let fsum f xs = float_of_int (List.fold_left (fun acc x -> acc + f x) 0 xs)
let ratio a b = if b > 0. then a /. b else 0.

let swapram_options = Swapram.Config.default_options
let block_options = Blockcache.Config.default_options

let config ~seed bench caching =
  { (Toolchain.default_config bench) with Toolchain.seed; caching }

(* Remove and recreate a temporary directory (flat: traces, ledgers). *)
let fresh_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end;
  Sys.mkdir dir 0o755

let remove_dir dir = if Sys.file_exists dir then (fresh_dir dir; Sys.rmdir dir)

(* Shadow builds: the compiler, assembler and instrumenter are all
   inside [Toolchain.prepare] (or deeper, inside a recording or an
   injected trial); calling each layer's entry point once more on the
   same input attributes build time to the layer that spends it. *)
let shadow_builds configs =
  List.iter
    (fun (c : Toolchain.config) ->
      let source = c.Toolchain.benchmark.Bench_def.source c.Toolchain.seed in
      let program =
        span ~shadow:true "minic.compile" (fun () ->
            Minic.Driver.program_of_source ~through_disasm:c.Toolchain.through_disasm
              source)
      in
      ignore (span ~shadow:true "masm.assemble" (fun () -> Masm.Assembler.assemble program));
      (match c.Toolchain.caching with
      | Toolchain.Swapram_cache options ->
          ignore
            (span ~shadow:true "swapram.instrument" (fun () ->
                 Swapram.Instrument.instrument ~options
                   ~layout:Masm.Assembler.default_layout program))
      | Toolchain.Block_cache options ->
          ignore
            (span ~shadow:true "blockcache.instrument" (fun () ->
                 Blockcache.Transform.transform ~options program))
      | Toolchain.Baseline | Toolchain.Checkpoint_runtime _ -> ());
      ignore (span ~shadow:true "toolchain.prepare" (fun () -> Toolchain.prepare c)))
    configs

(* Modelled-component counts summed over completed runs: a model
   change may move these, a simulator-only change must not. *)
let modelled (results : Toolchain.result list) =
  let st (r : Toolchain.result) = r.Toolchain.stats in
  let sr f (r : Toolchain.result) = Option.fold ~none:0 ~some:f r.Toolchain.swapram_stats in
  let bb f (r : Toolchain.result) = Option.fold ~none:0 ~some:f r.Toolchain.block_stats in
  [
    ("msp430.instructions", fsum (fun r -> (st r).Trace.instructions) results);
    ("msp430.fram_accesses", fsum (fun r -> Trace.fram_accesses (st r)) results);
    ("msp430.sram_accesses", fsum (fun r -> Trace.sram_accesses (st r)) results);
    ( "msp430.hwcache_hit_rate",
      ratio
        (fsum (fun r -> (st r).Trace.fram_read_hits) results)
        (fsum (fun r -> (st r).Trace.fram_ifetch + (st r).Trace.fram_data_reads) results) );
    ("swapram.misses", fsum (sr (fun s -> s.Swapram.Runtime.misses)) results);
    ("swapram.evictions", fsum (sr (fun s -> s.Swapram.Runtime.evictions)) results);
    ("swapram.words_copied", fsum (sr (fun s -> s.Swapram.Runtime.words_copied)) results);
    ("blockcache.misses", fsum (bb (fun s -> s.Blockcache.Runtime.misses)) results);
    ("blockcache.flushes", fsum (bb (fun s -> s.Blockcache.Runtime.flushes)) results);
  ]

(* The same counts reconstructed from decoded traces (the DSE keeps no
   execution results); copied-word counts are not recorded in traces. *)
let modelled_of_loaded (ls : Engine.loaded list) =
  let runtime system f =
    fsum
      (fun (l : Engine.loaded) ->
        if l.Engine.header.Replay.Trace_file.system = system then f l.Engine.runtime else 0)
      ls
  in
  [
    ("msp430.instructions", fsum (fun (l : Engine.loaded) -> l.Engine.instructions) ls);
    ( "msp430.fram_accesses",
      fsum (fun (l : Engine.loaded) -> l.Engine.fram_ifetch + l.fram_data_reads + l.fram_writes) ls );
    ( "msp430.sram_accesses",
      fsum (fun (l : Engine.loaded) -> l.Engine.sram_ifetch + l.sram_data_reads + l.sram_writes) ls );
    ( "msp430.hwcache_hit_rate",
      ratio
        (fsum (fun (l : Engine.loaded) -> l.Engine.fram_read_hits) ls)
        (fsum (fun (l : Engine.loaded) -> l.Engine.fram_ifetch + l.fram_data_reads) ls) );
    ("swapram.misses", runtime "swapram" (fun rc -> rc.Engine.rc_misses));
    ("swapram.evictions", runtime "swapram" (fun rc -> rc.Engine.rc_evictions));
    ("blockcache.misses", runtime "block" (fun rc -> rc.Engine.rc_misses));
    ("blockcache.flushes", runtime "block" (fun rc -> rc.Engine.rc_flushes));
  ]

let result_key (r : Toolchain.result) =
  Printf.sprintf "cycles=%d energy=%h instr=%d ret=%d uart=%S"
    (Trace.total_cycles r.Toolchain.stats)
    r.Toolchain.energy.Msp430.Energy.energy_nj r.Toolchain.stats.Trace.instructions
    r.Toolchain.return_value r.Toolchain.uart

(* --- exec-suite ----------------------------------------------------------- *)

(* bench/baseline.json pins every Table-2 cell at its recording seed;
   it is read here, never copied, so a design change that regenerates
   it stays consistent with this check. *)
let baseline_cells ~root ~seed =
  let path = Filename.concat root "bench/baseline.json" in
  let j =
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let ( |? ) j k = Option.bind j (Json.member k) in
  if Option.bind (Some j |? "seed") Json.to_int <> Some seed then None
  else
    Some
      (List.concat_map
         (fun b ->
           let name = Option.value ~default:"" (Option.bind (Json.member "name" b) Json.to_str) in
           List.map
             (fun system -> ((name, system), Some b |? "systems" |? system))
             [ "baseline"; "swapram"; "block" ])
         (Option.value ~default:[] (Option.bind (Some j |? "benchmarks") Json.to_list)))

let check_baseline cells ((bench, system), (r : Toolchain.result)) =
  match List.assoc_opt (bench, system) cells with
  | None | Some None -> [ Printf.sprintf "%s/%s: not in bench/baseline.json" bench system ]
  | Some (Some j) ->
      let field k = Option.map Json.to_string (Json.member k j) in
      List.filter_map
        (fun (k, v) ->
          if field k = Some (Json.to_string v) then None
          else
            Some
              (Printf.sprintf "%s/%s: %s = %s, bench/baseline.json has %s" bench system k
                 (Json.to_string v) (Option.value ~default:"nothing" (field k))))
        [
          ("cycles", Json.Int (Trace.total_cycles r.Toolchain.stats));
          ("energy_nj", Json.Float r.Toolchain.energy.Msp430.Energy.energy_nj);
          ("instructions", Json.Int r.Toolchain.stats.Trace.instructions);
        ]

let exec_suite ~size ~seed ~root =
  let systems =
    [ Toolchain.Baseline; Toolchain.Swapram_cache swapram_options; Toolchain.Block_cache block_options ]
  in
  let candidates =
    List.concat_map (fun b -> List.map (config ~seed b) systems) size.exec_benchmarks
  in
  let name (c : Toolchain.config) =
    (c.Toolchain.benchmark.Bench_def.name, Toolchain.caching_name c.Toolchain.caching)
  in
  let cells = ref [] and skipped = ref [] and pinned = ref None in
  let last = ref [] in
  let setup () =
    pinned := span "perf.baseline" (fun () -> baseline_cells ~root ~seed);
    (* cells whose image does not fit a system are the paper's DNF
       marks: found once here, skipped by design in the timed phase *)
    let fits c = Result.is_ok (span "toolchain.prepare" (fun () -> Toolchain.prepare c)) in
    let fit, dnf = List.partition fits candidates in
    cells := fit;
    skipped := List.map name dnf
  in
  let run_cell (c : Toolchain.config) =
    match span "toolchain.prepare" (fun () -> Toolchain.prepare c) with
    | Error msg -> Error ("did not fit: " ^ msg)
    | Ok p -> (
        let cpu = p.Toolchain.p_system.Msp430.Platform.cpu in
        span "toolchain.boot" (fun () -> Toolchain.boot p);
        match
          span "msp430.run"
            ~work:(fun _ -> (Msp430.Cpu.stats cpu).Trace.instructions)
            (fun () -> Msp430.Cpu.run ~fuel:c.Toolchain.fuel cpu)
        with
        | Msp430.Cpu.Halted -> Ok (span "toolchain.collect" (fun () -> Toolchain.collect p))
        | o -> Error ("crashed: " ^ Msp430.Cpu.outcome_name o))
  in
  (* §5.1: each cached system's UART output and return value must equal
     the baseline's for the same program. One error list per cell. *)
  let check results =
    span "perf.check" @@ fun () ->
    List.map
      (fun ((bench, system), r) ->
        match (r, List.assoc_opt (bench, "baseline") results) with
        | Error e, _ -> [ Printf.sprintf "%s/%s: %s" bench system e ]
        | Ok (r : Toolchain.result), Some (Ok (b : Toolchain.result)) when system <> "baseline" ->
            if r.Toolchain.uart = b.Toolchain.uart && r.Toolchain.return_value = b.Toolchain.return_value
            then []
            else [ Printf.sprintf "%s/%s: output differs from baseline" bench system ]
        | Ok _, _ -> [])
      results
  in
  let failures per_cell = List.length (List.filter (fun e -> e <> []) per_cell) in
  let rep () =
    let timed =
      List.map
        (fun c ->
          let r, dt =
            Sweep.timed (fun () -> try run_cell c with e -> Error (Printexc.to_string e))
          in
          ((name c, r), dt))
        !cells
    in
    let results = List.map fst timed in
    let per_cell = check results in
    last := List.filter_map (fun (k, r) -> Result.to_option r |> Option.map (fun r -> (k, r))) results;
    {
      ops = List.length results;
      failed = failures per_cell;
      errors = List.concat per_cell;
      digest =
        fnv
          (String.concat "\n"
             (List.map
                (fun ((b, s), r) ->
                  b ^ "/" ^ s ^ " " ^ match r with Ok r -> result_key r | Error e -> e)
                results));
      times = List.map (fun (((b, s), _), dt) -> (b ^ "/" ^ s, dt)) timed;
    }
  in
  let verify () =
    span "perf.check" @@ fun () ->
    match !pinned with
    | None -> ok_rep 0 ""
    | Some cells ->
        let per_cell =
          List.map (check_baseline cells) !last
          @ List.map
              (fun (b, s) ->
                match List.assoc_opt (b, s) cells with
                | Some (Some j)
                  when Option.bind (Json.member "status" j) Json.to_str <> Some "did-not-fit" ->
                    [ Printf.sprintf "%s/%s: did not fit, bench/baseline.json ran it" b s ]
                | _ -> [])
              !skipped
        in
        {
          (ok_rep (List.length per_cell) "") with
          failed = failures per_cell;
          errors = List.concat per_cell;
        }
  in
  let ratio_of f =
    let per_bench =
      List.filter_map
        (fun ((b, s), r) ->
          if s <> "swapram" then None
          else
            Option.map (fun base -> f r /. f base) (List.assoc_opt (b, "baseline") !last))
        !last
    in
    if per_bench = [] then Json.Null else Json.Float (Stats.geomean per_bench)
  in
  {
    setup;
    rep;
    verify;
    layer =
      (fun () ->
        shadow_builds !cells;
        ("msp430.minstr_per_s", rate "msp430.run") :: modelled (List.map snd !last));
    outputs =
      (fun () ->
        [
          ("cells", Json.Int (List.length !cells));
          ("did_not_fit", Json.List (List.map (fun (b, s) -> Json.String (b ^ "/" ^ s)) !skipped));
          ( "sim_cycles_ratio",
            ratio_of (fun r -> float_of_int (Trace.total_cycles r.Toolchain.stats)) );
          ("sim_energy_ratio", ratio_of (fun r -> r.Toolchain.energy.Msp430.Energy.energy_nj));
        ]);
    cleanup = ignore;
  }

(* --- replay-analyze --------------------------------------------------------- *)

let trace_configs ~size ~seed =
  List.concat_map
    (fun b ->
      [
        config ~seed b (Toolchain.Swapram_cache swapram_options);
        config ~seed b (Toolchain.Block_cache block_options);
      ])
    size.trace_benchmarks

let cell_name (c : Toolchain.config) =
  c.Toolchain.benchmark.Bench_def.name ^ "/" ^ Toolchain.caching_name c.Toolchain.caching

let load_exn f trace =
  match f trace with Ok l -> l | Error e -> failwith (Engine.error_message e)

type analysis = {
  a_events : int;
  a_bytes : int;
  a_refs : int;
  a_beyond : int;  (** grid cells whose budget holds the whole footprint *)
  a_key : string;
  a_errors : string list;
}

let replay_analyze ~size ~seed ~dir =
  let grid = Replay_sweep.grid () in
  let recorded = ref [] and last = ref [] in
  let setup () =
    fresh_dir dir;
    recorded :=
      List.filter_map
        (fun (c : Toolchain.config) ->
          let trace =
            Filename.concat dir
              (Printf.sprintf "%s-%s.trace" c.Toolchain.benchmark.Bench_def.short
                 (Toolchain.caching_name c.Toolchain.caching))
          in
          match span "toolchain.record" (fun () -> Toolchain.run_recorded ~trace c) with
          | Toolchain.Completed r -> Some (c, trace, r)
          | Toolchain.Did_not_fit _ -> None
          | Toolchain.Crashed o ->
              failwith (cell_name c ^ ": recording crashed: " ^ Msp430.Cpu.outcome_name o))
        (trace_configs ~size ~seed)
  in
  let analyze (_, trace, (r : Toolchain.result)) =
    let l =
      span "replay.load"
        ~work:(function Ok l -> l.Engine.events | Error _ -> 0)
        (fun () -> Engine.load trace)
      |> Result.map_error Engine.error_message
      |> Result.fold ~ok:Fun.id ~error:failwith
    in
    let totals =
      span "replay.exact" (fun () -> Engine.exact l) |> Result.fold ~ok:Fun.id ~error:failwith
    in
    let mismatches = span "replay.verify" (fun () -> Replay_sweep.verify_exact l r) in
    let mrc = span "replay.mrc" ~work:Observe.Reuse.accesses (fun () -> Engine.mrc l) in
    let metrics =
      span "observe.metrics"
        ~work:(fun _ -> l.Engine.events)
        (fun () -> Engine.replay_metrics trace)
      |> Result.map_error Engine.error_message
      |> Result.fold ~ok:fst ~error:failwith
    in
    let sims =
      List.map
        (fun (cell : Replay_sweep.cell) ->
          let model =
            { Engine.m_budget = cell.c_budget; m_policy = cell.c_policy; m_block = cell.c_block }
          in
          ( cell,
            span
              ("replay.simulate." ^ Engine.policy_name cell.c_policy)
              ~work:(fun s -> s.Engine.s_refs)
              (fun () -> Engine.simulate l model) ))
        grid
    in
    span "perf.check" @@ fun () ->
    (* Independent reconstructions must agree: each singleton LRU sim
       with the replayed stack-distance curve, and that curve with the
       one the observe layer rebuilt while streaming the trace. *)
    let budgets = Observe.Metrics.default_budgets in
    let curve = Observe.Reuse.curve mrc ~budgets in
    let lru_errors =
      List.filter_map
        (fun ((cell : Replay_sweep.cell), (s : Engine.sim)) ->
          let predicted = Observe.Reuse.predicted_misses mrc ~budget:cell.c_budget in
          if cell.c_policy = Engine.Lru && cell.c_block = None && s.Engine.s_misses <> predicted then
            Some
              (Printf.sprintf "lru@%d: %d misses, the MRC predicts %d" cell.c_budget
                 s.Engine.s_misses predicted)
          else None)
        sims
    in
    let mrc_errors =
      match Observe.Metrics.reuse_tracker metrics with
      | Some t when Observe.Reuse.curve t ~budgets = curve -> []
      | _ -> [ "the replayed metrics MRC differs from Engine.mrc" ]
    in
    {
      a_events = l.Engine.events;
      a_bytes = l.Engine.bytes;
      a_refs = (match sims with (_, s) :: _ -> s.Engine.s_refs | [] -> 0);
      a_beyond =
        (let footprint = Engine.footprint l in
         List.length (List.filter (fun ((c : Replay_sweep.cell), _) -> c.c_budget >= footprint) sims));
      a_key =
        Printf.sprintf "cycles=%d energy=%h sims=%s curve=%s" totals.Engine.t_cycles
          totals.Engine.t_energy_nj
          (String.concat ";"
             (List.map
                (fun (_, (s : Engine.sim)) ->
                  Printf.sprintf "%d/%d/%d/%d" s.Engine.s_misses s.s_cold_misses s.s_evictions
                    s.s_bytes_loaded)
                sims))
          (String.concat ";" (List.map (fun (b, m) -> Printf.sprintf "%d:%h" b m) curve));
      a_errors = mismatches @ lru_errors @ mrc_errors;
    }
  in
  let rep () =
    let timed =
      List.map
        (fun ((c, _, _) as t) ->
          let a, dt = Sweep.timed (fun () -> try Ok (analyze t) with e -> Error (Printexc.to_string e)) in
          ((cell_name c, a), dt))
        !recorded
    in
    let outcomes = List.map fst timed in
    last := List.filter_map (fun (_, a) -> Result.to_option a) outcomes;
    let errors =
      List.concat_map
        (fun (n, a) ->
          List.map (fun e -> n ^ ": " ^ e)
            (match a with Ok a -> a.a_errors | Error e -> [ e ]))
        outcomes
    in
    {
      ops = List.length outcomes;
      failed =
        List.length
          (List.filter (function _, Ok a -> a.a_errors <> [] | _, Error _ -> true) outcomes);
      errors;
      digest =
        fnv
          (String.concat "\n"
             (List.map
                (fun (n, a) -> n ^ " " ^ match a with Ok a -> a.a_key | Error e -> e)
                outcomes));
      times = List.map (fun ((n, _), dt) -> (n, dt)) timed;
    }
  in
  let sum f = fsum f !last in
  {
    setup;
    rep;
    verify = (fun () -> ok_rep 0 "");
    layer =
      (fun () ->
        shadow_builds (List.map (fun (c, _, _) -> c) !recorded);
        let results = List.map (fun (_, _, r) -> r) !recorded in
        let record_s = (Spans.total "toolchain.record").Spans.seconds in
        [
          ( "msp430.minstr_per_s",
            ratio (fsum (fun (r : Toolchain.result) -> r.Toolchain.stats.Trace.instructions) results) record_s
            *. 1e-6 );
          ("trace_file.record_mevents_per_s", ratio (sum (fun a -> a.a_events)) record_s *. 1e-6);
          ("trace_file.bytes_per_event", ratio (sum (fun a -> a.a_bytes)) (sum (fun a -> a.a_events)));
          ("replay.load_mevents_per_s", rate "replay.load");
          ("replay.mrc_mrefs_per_s", rate "replay.mrc");
          ("replay.sim_mrefs_per_s.lru", rate "replay.simulate.lru");
          ("replay.sim_mrefs_per_s.lfu", rate "replay.simulate.lfu");
          ("replay.sim_mrefs_per_s.cost", rate "replay.simulate.cost");
          ("replay.refs", sum (fun a -> a.a_refs));
          ( "replay.beyond_footprint_frac",
            ratio (sum (fun a -> a.a_beyond)) (float_of_int (List.length grid * List.length !last)) );
          ("observe.metrics_mevents_per_s", rate "observe.metrics");
        ]
        @ modelled results);
    outputs = (fun () -> [ ("traces", Json.Int (List.length !recorded)) ]);
    cleanup = (fun () -> remove_dir dir);
  }

(* --- dse-grid --------------------------------------------------------------- *)

(* The explorer's model axis per workload, restated from its documented
   contract (EXPERIMENTS.md): policy-major budget ladders, the block
   axis normalized to multiples of a line trace's recorded slot and
   deduplicated, no block axis for function traces. The verification
   pass rebuilds every frontier from these ladders. *)
let ladders (grid : Dse.grid) (w : Dse.workload) =
  let blocks =
    match w.Dse.w_line_bytes with
    | None -> [ 0 ]
    | Some slot ->
        List.sort_uniq compare
          (List.map (function None -> slot | Some b -> max 1 (b / slot) * slot) grid.Dse.g_blocks)
  in
  List.concat_map
    (fun policy ->
      List.map
        (fun block ->
          ( policy,
            List.map
              (fun budget ->
                {
                  Engine.m_budget = budget;
                  m_policy = policy;
                  m_block = (if block = 0 then None else Some block);
                })
              grid.Dse.g_budgets ))
        blocks)
    grid.Dse.g_policies

(* Worker busy time and pool window from a telemetry ledger: each
   task's dispatch->result interval, and the span the explorer wraps
   around its pool. *)
let pool_busy ledger =
  match Observe.Telemetry.read_file ledger with
  | Error e -> failwith e
  | Ok records ->
      let dispatched = Hashtbl.create 64 and opened = Hashtbl.create 4 in
      List.fold_left
        (fun (busy, window) r ->
          let s t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9 in
          match r with
          | Observe.Telemetry.Worker { ts; ev = "dispatch"; pid; task; _ } ->
              Hashtbl.replace dispatched (pid, task) ts;
              (busy, window)
          | Observe.Telemetry.Worker { ts; ev = "result"; pid; task; _ } -> (
              match Hashtbl.find_opt dispatched (pid, task) with
              | Some t0 -> (busy +. s t0 ts, window)
              | None -> (busy, window))
          | Observe.Telemetry.Span_begin { ts; id; cat = "dse"; name = "simulate"; _ } ->
              Hashtbl.replace opened id ts;
              (busy, window)
          | Observe.Telemetry.Span_end { ts; id; _ } -> (
              match Hashtbl.find_opt opened id with
              | Some t0 -> (busy, window +. s t0 ts)
              | None -> (busy, window))
          | _ -> (busy, window))
        (0., 0.) records

let dse_grid ~size ~seed ~dir =
  let jobs = 2 in
  let grid = { Dse.default_grid with Dse.g_budgets = size.dse_budgets } in
  let workloads = ref [] and last = ref None in
  let busy = ref 0. and window = ref 0. in
  let sims_expected () =
    List.fold_left
      (fun acc w -> List.fold_left (fun acc (_, ms) -> acc + List.length ms) acc (ladders grid w))
      0 !workloads
  in
  let setup () =
    fresh_dir dir;
    (* the decode cache would otherwise serve every later set-up *)
    Engine.clear_load_cache ();
    workloads :=
      span "dse.record"
        ~work:(function Ok ws -> List.fold_left (fun a w -> a + w.Dse.w_events) 0 ws | Error _ -> 0)
        (fun () ->
          Dse.record_workloads ~seed ~benchmarks:size.trace_benchmarks ~jobs:1 ~dir ())
      |> Result.fold ~ok:Fun.id ~error:failwith
  in
  (* The traced run also keeps a telemetry ledger of the pool, for the
     workers' busy share; the untraced run never opens one. *)
  let with_ledger f =
    if not (Spans.enabled ()) then f ()
    else
      let ledger = Filename.concat dir "pool.jsonl" in
      (match Observe.Telemetry.enable ledger with Ok () -> () | Error e -> failwith e);
      let r = Fun.protect ~finally:Observe.Telemetry.disable f in
      span "perf.ledger" (fun () ->
          let b, w = pool_busy ledger in
          busy := !busy +. b;
          window := !window +. w);
      r
  in
  let rep () =
    let ops = sims_expected () in
    guarded ops @@ fun () ->
    match
      with_ledger (fun () ->
          span "dse.run"
            ~work:(function Ok o -> o.Dse.d_points_total | Error _ -> 0)
            (fun () -> Dse.run ~jobs grid !workloads))
    with
    | Error e -> failed_rep ops e
    | Ok o ->
        last := Some o;
        let errors =
          (if o.Dse.d_sims_total = ops then []
           else [ Printf.sprintf "%d sims, the grid has %d" o.Dse.d_sims_total ops ])
          @
          if o.Dse.d_sims_computed = o.Dse.d_sims_total then []
          else [ "sims were served from a memo store" ]
        in
        {
          (ok_rep ops (span "perf.check" (fun () -> fnv (Json.to_string (Dse.json ~slim:true grid o)))))
          with
          failed = (if errors = [] then 0 else ops);
          errors;
        }
  in
  let collapsed = ref 0 and lru_models = ref 0 and beyond = ref 0 and refs = ref 0 in
  (* Rebuild every frontier from whole-ladder batches, the objective
     model and the Pareto filter, and demand the explorer's exact
     result. *)
  let verify () =
    match !last with
    | None -> ok_rep 0 ""
    | Some o ->
        collapsed := 0;
        lru_models := 0;
        beyond := 0;
        refs := 0;
        let all = ref [] in
        let frontier (w : Dse.workload) =
          let l = load_exn Engine.load_cached w.Dse.w_trace in
          let name = Dse.workload_name w in
          let ladders = ladders grid w in
          let footprint = Engine.footprint l in
          let points =
            List.concat @@ List.mapi
              (fun i (policy, models) ->
                let sims, c =
                  span
                    ("replay.ladder." ^ Engine.policy_name policy)
                    ~work:(function
                      | s :: _, _ -> s.Engine.s_refs * List.length models | [], _ -> 0)
                    (fun () -> Engine.simulate_many_collapsed l models)
                in
                (* the first ladder runs at the recorded granularity *)
                if i = 0 then refs := !refs + (List.hd sims).Engine.s_refs;
                collapsed := !collapsed + c;
                if policy = Engine.Lru then lru_models := !lru_models + List.length models;
                beyond :=
                  !beyond
                  + List.length
                      (List.filter (fun m -> m.Engine.m_budget >= footprint) models);
                span "dse.objectives" ~work:List.length (fun () ->
                    List.concat
                      (List.map2
                         (fun (m : Engine.model) s ->
                           List.map
                             (fun freq ->
                               {
                                 Dse.p_workload = name;
                                 p_budget = m.Engine.m_budget;
                                 p_policy = Engine.policy_name policy;
                                 p_block = Option.value ~default:0 m.Engine.m_block;
                                 p_frequency_mhz = freq;
                                 p_obj = Dse.objectives_of l ~frequency_mhz:freq ~budget:m.Engine.m_budget s;
                               })
                             grid.Dse.g_frequencies)
                         models sims)))
              ladders
          in
          all := List.rev_append points !all;
          {
            Dse.f_workload = name;
            f_points = List.length points;
            f_frontier = span "dse.pareto" ~work:(fun _ -> List.length points) (fun () -> Dse.pareto points);
          }
        in
        let fronts = List.map frontier !workloads in
        let global =
          span "dse.pareto" ~work:(fun _ -> List.length !all) (fun () -> Dse.pareto !all)
        in
        span "perf.check" @@ fun () ->
        let errors =
          List.concat
            [
              (if fronts = o.Dse.d_frontiers then [] else [ "per-workload frontiers differ" ]);
              (if global = o.Dse.d_global_frontier then [] else [ "global frontier differs" ]);
            ]
        in
        { (ok_rep o.Dse.d_sims_total "") with failed = (if errors = [] then 0 else o.d_sims_total); errors }
  in
  {
    setup;
    rep;
    verify;
    layer =
      (fun () ->
        shadow_builds
          (List.map
             (fun c -> { c with Toolchain.frequency = Msp430.Platform.Mhz8 })
             (trace_configs ~size ~seed));
        let loaded =
          List.map
            (fun (w : Dse.workload) ->
              span ~shadow:true "replay.load"
                ~work:(fun l -> l.Engine.events)
                (fun () -> load_exn Engine.load w.Dse.w_trace))
            !workloads
        in
        let n = sims_expected () in
        let width = Parallel.chunk_size ~jobs n in
        let chunks = (n + width - 1) / width in
        (* The pool's own cost: the same item count through
           map_chunked with a trivial task that returns a sim-sized
           result, so only dispatch, Marshal and pipe traffic remain. *)
        ignore
          (span ~shadow:true "parallel.map_chunked"
             ~work:(fun _ -> chunks)
             (fun () ->
               Parallel.map_chunked ~jobs
                 (fun i ->
                   {
                     Engine.s_refs = i;
                     s_misses = i;
                     s_cold_misses = i;
                     s_evictions = i;
                     s_bytes_loaded = i;
                     s_miss_rate = 0.;
                   })
                 (List.init n Fun.id)));
        let models = float_of_int n in
        let record_s = (Spans.total "dse.record").Spans.seconds in
        [
          ( "msp430.minstr_per_s",
            ratio (fsum (fun (l : Engine.loaded) -> l.Engine.instructions) loaded) record_s *. 1e-6 );
          ("trace_file.record_mevents_per_s", rate "dse.record");
          ( "trace_file.bytes_per_event",
            ratio
              (fsum (fun (l : Engine.loaded) -> l.Engine.bytes) loaded)
              (fsum (fun (l : Engine.loaded) -> l.Engine.events) loaded) );
          ("replay.load_mevents_per_s", rate "replay.load");
          ("replay.ladder_mref_models_per_s.lru", rate "replay.ladder.lru");
          ("replay.ladder_mref_models_per_s.lfu", rate "replay.ladder.lfu");
          ("replay.ladder_mref_models_per_s.cost", rate "replay.ladder.cost");
          ("replay.refs", float_of_int !refs);
          ("replay.collapse_ratio", ratio (float_of_int !collapsed) (float_of_int !lru_models));
          ("replay.beyond_footprint_frac", ratio (float_of_int !beyond) models);
          ("dse.objectives_mpoints_per_s", rate "dse.objectives");
          ("dse.pareto_mpoints_per_s", rate "dse.pareto");
          ("parallel.chunks", float_of_int chunks);
          ("parallel.busy_frac", ratio !busy (float_of_int jobs *. !window));
          ("parallel.trivial_chunks_per_s", rate ~scale:1. "parallel.map_chunked");
        ]
        @ modelled_of_loaded loaded);
    outputs =
      (fun () ->
        match !last with
        | None -> []
        | Some o ->
            [
              ("points", Json.Int o.Dse.d_points_total);
              ("sims", Json.Int o.Dse.d_sims_total);
              ("sims_collapsed", Json.Int o.Dse.d_sims_collapsed);
              ("global_frontier", Json.Int (List.length o.Dse.d_global_frontier));
            ]);
    cleanup =
      (fun () ->
        Engine.clear_load_cache ();
        remove_dir dir);
  }

(* --- campaign --------------------------------------------------------------- *)

(* Campaign.run's per-trial tally, restated: a pass is consistent and
   completed, a mismatch completed, an escape or livelock neither. *)
let tally_of (r : Injector.report) =
  let completed, consistent, mismatch, escape, livelock =
    match r.Injector.r_verdict with
    | Injector.Pass -> (1, 1, 0, 0, 0)
    | Injector.State_mismatch _ | Injector.Return_mismatch _ -> (1, 0, 1, 0, 0)
    | Injector.Fault_escape _ -> (0, 0, 0, 1, 0)
    | Injector.Livelock _ -> (0, 0, 0, 0, 1)
    | Injector.Build_failed msg -> failwith ("trial build failed: " ^ msg)
  in
  {
    Campaign.t_trials = 1;
    t_consistent = consistent;
    t_completed = completed;
    t_mismatches = mismatch;
    t_fault_escapes = escape;
    t_livelocks = livelock;
    t_reboots = r.Injector.r_reboots;
    t_torn = r.Injector.r_torn_reboots;
    t_reboots_completed = (if completed = 1 then r.Injector.r_reboots else 0);
    t_cycles_completed = (if completed = 1 then float_of_int r.Injector.r_cycles else 0.);
    t_energy_completed = (if completed = 1 then r.Injector.r_energy_nj else 0.);
  }

let campaign ~size ~seed =
  let plan =
    {
      Campaign.default_plan with
      Campaign.p_benchmarks = [ Suite.journal ];
      p_samplers = size.campaign_samplers;
      p_trials = size.campaign_trials;
      p_seed = seed;
      (* A livelocked trial runs until this many golden runs' cycles.
         At the default 16 the handful of livelocks a seed happens to
         draw decides the run's cost; at 4 they still dominate the
         skewed cells without making throughput a lottery on the seed. *)
      p_watchdog_scale = 4;
    }
  in
  (* Campaign.run's cell order: benchmark, then runtime, then sampler *)
  let cells =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun rt -> List.map (fun s -> (config ~seed:1 b rt, s)) plan.Campaign.p_samplers)
          plan.Campaign.p_runtimes)
      plan.Campaign.p_benchmarks
  in
  let ops = List.length cells * plan.Campaign.p_trials in
  let goldens = ref [] and last = ref None and reports = ref [] in
  let golden_of c = List.assoc (cell_name c) !goldens in
  let setup () =
    goldens :=
      List.map
        (fun (c, _) ->
          ( cell_name c,
            span "faultinject.golden"
              ~work:(function Ok g -> g.Oracle.g_instructions | Error _ -> 0)
              (fun () -> Oracle.golden ~fuel:plan.Campaign.p_fuel c)
            |> Result.fold ~ok:Fun.id ~error:failwith ))
        (List.sort_uniq compare (List.map (fun (c, _) -> (c, ())) cells))
  in
  let rep () =
    guarded ops @@ fun () ->
    match
      span "faultinject.campaign"
        ~work:(function Ok o -> o.Campaign.o_trials | Error _ -> 0)
        (fun () -> Campaign.run ~jobs:1 plan)
    with
    | Error e -> failed_rep ops e
    | Ok o ->
        last := Some o;
        let errors =
          List.filter_map
            (fun ((c, _), cr) ->
              if cr.Campaign.cr_golden = golden_of c then None
              else Some (cr.Campaign.cr_cell.Campaign.cl_label ^ ": golden run differs"))
            (List.combine cells o.Campaign.o_cells)
        in
        {
          (ok_rep o.Campaign.o_trials (span "perf.check" (fun () -> fnv (Json.to_string (Campaign.to_json o)))))
          with
          failed = (if errors = [] then 0 else o.Campaign.o_trials);
          errors;
        }
  in
  (* Re-drive every trial through the public injector with the
     campaign's seeds, samplers and watchdogs, fold tallies shard by
     shard exactly as the campaign does, and demand its exact tallies. *)
  let verify () =
    match !last with
    | None -> ok_rep 0 ""
    | Some o ->
        reports := [];
        let shard = plan.Campaign.p_shard_trials in
        let errors =
          List.concat
            (List.mapi
               (fun cell_idx ((c, sampler), cr) ->
                 let golden = golden_of c in
                 let watchdog_cycles =
                   max 2_000_000 (golden.Oracle.g_cycles * plan.Campaign.p_watchdog_scale)
                 in
                 let trial t =
                   let schedule =
                     Campaign.schedule_for sampler golden
                       (Campaign.trial_seed ~seed:plan.Campaign.p_seed ~cell:cell_idx ~trial:t)
                   in
                   let r =
                     span "faultinject.trial"
                       ~work:(fun r -> r.Injector.r_instructions)
                       (fun () ->
                         Injector.run_against ~max_reboots:plan.Campaign.p_max_reboots
                           ~watchdog_cycles ~fuel:plan.Campaign.p_fuel ~golden c schedule)
                   in
                   reports := r :: !reports;
                   tally_of r
                 in
                 let shards = (plan.Campaign.p_trials + shard - 1) / shard in
                 let tally =
                   List.fold_left
                     (fun acc s ->
                       let hi = min plan.Campaign.p_trials ((s + 1) * shard) in
                       Campaign.tally_add acc
                         (List.fold_left
                            (fun acc t -> Campaign.tally_add acc (trial t))
                            Campaign.tally_zero
                            (List.init (hi - (s * shard)) (fun i -> (s * shard) + i))))
                     Campaign.tally_zero (List.init shards Fun.id)
                 in
                 if tally = cr.Campaign.cr_tally then []
                 else [ cr.Campaign.cr_cell.Campaign.cl_label ^ ": re-driven tally differs" ])
               (List.combine cells o.Campaign.o_cells))
        in
        { (ok_rep ops "") with failed = List.length errors * plan.Campaign.p_trials; errors }
  in
  {
    setup;
    rep;
    verify;
    layer =
      (fun () ->
        let configs = List.sort_uniq compare (List.map fst cells) in
        shadow_builds configs;
        let results =
          List.filter_map
            (fun c ->
              match span ~shadow:true "toolchain.run" (fun () -> Toolchain.run c) with
              | Toolchain.Completed r -> Some r
              | Toolchain.Crashed _ | Toolchain.Did_not_fit _ -> None)
            configs
        in
        let instr = fsum (fun r -> r.Injector.r_instructions) !reports in
        let livelocked =
          List.filter
            (fun r -> match r.Injector.r_verdict with Injector.Livelock _ -> true | _ -> false)
            !reports
        in
        [
          ("msp430.minstr_per_s", rate "faultinject.trial");
          ( "faultinject.reboots_per_trial",
            ratio (fsum (fun r -> r.Injector.r_reboots) !reports) (float_of_int (List.length !reports)) );
          ("faultinject.livelock_instr_frac", ratio (fsum (fun r -> r.Injector.r_instructions) livelocked) instr);
        ]
        @ modelled results);
    outputs =
      (fun () ->
        match !last with
        | None -> []
        | Some o ->
            let t =
              List.fold_left
                (fun acc cr -> Campaign.tally_add acc cr.Campaign.cr_tally)
                Campaign.tally_zero o.Campaign.o_cells
            in
            [
              ("trials", Json.Int t.Campaign.t_trials);
              ( "crash_consistency",
                Json.Float (float_of_int t.Campaign.t_consistent /. float_of_int t.Campaign.t_trials) );
              ("livelocks", Json.Int t.Campaign.t_livelocks);
            ]);
    cleanup = ignore;
  }

let make ~size ~seed ~root ~dir = function
  | "exec-suite" -> Some (exec_suite ~size ~seed ~root)
  | "replay-analyze" -> Some (replay_analyze ~size ~seed ~dir)
  | "dse-grid" -> Some (dse_grid ~size ~seed ~dir)
  | "campaign" -> Some (campaign ~size ~seed)
  | _ -> None
