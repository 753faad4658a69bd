module Platform = Msp430.Platform

(* Shared evaluation sweep: every benchmark under the three systems
   (unified baseline, SwapRAM, block cache) at a given frequency.
   Table 2, Figures 8 and 9 all read from this matrix; results are
   memoized per (seed, frequency, observe, engine, subset) so one
   bench run computes it once.

   With [jobs > 1] the independent (benchmark x system) cells are
   sharded across forked workers ({!Parallel.map}), and the merged
   result list is ordered by benchmark exactly as a serial sweep would
   produce it. *)

type entry = {
  benchmark : Workloads.Bench_def.t;
  baseline : Toolchain.result;
  swapram : Toolchain.outcome;
  block : Toolchain.outcome;
}

type t = entry list

let timed f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  let t1 = Monotonic_clock.now () in
  (r, Int64.to_float (Int64.sub t1 t0) /. 1e9)

(* Default worker count for every sweep-shaped computation in this
   library; the bench driver and CLI set it from --jobs. *)
let default_jobs = ref 1
let set_default_jobs n = default_jobs := max 1 n
let resolve_jobs jobs = match jobs with Some j -> max 1 j | None -> !default_jobs

(* Default progress sink, same shape as [default_jobs]: sweeps invoked
   deep inside figure/table modules can't thread a sink, so the bench
   driver plugs one in process-wide. Purely observational. *)
let default_progress = ref Observe.Progress.null
let set_default_progress sink = default_progress := sink

(* Memo accounting: attribution for "why was this run instant / slow",
   printed by the bench driver and mirrored as telemetry counters. *)
type memo_stats = { hits : int; misses : int }

let memo_hits = ref 0
let memo_misses = ref 0
let memo_stats () = { hits = !memo_hits; misses = !memo_misses }

let reset_memo_stats () =
  memo_hits := 0;
  memo_misses := 0

let count_hit () =
  incr memo_hits;
  Observe.Telemetry.counter "sweep.memo_hits" !memo_hits

let count_miss () =
  incr memo_misses;
  Observe.Telemetry.counter "sweep.memo_misses" !memo_misses

type key =
  int * Platform.frequency * Toolchain.observe_spec option * string
  * string list

let memo : (key, t) Hashtbl.t = Hashtbl.create 4

(* One (benchmark x system) cell: the unit of work a forked worker
   executes. *)
let run_cell ?observe ~seed ~frequency (benchmark, sys) =
  let caching =
    match sys with
    | `Baseline -> Toolchain.Baseline
    | `Swapram -> Toolchain.Swapram_cache Swapram.Config.default_options
    | `Block -> Toolchain.Block_cache Blockcache.Config.default_options
  in
  let config =
    { (Toolchain.default_config benchmark) with Toolchain.seed; frequency; caching }
  in
  match sys with
  | `Baseline ->
      Toolchain.Completed
        (Report.expect_completed
           ~what:(benchmark.Workloads.Bench_def.name ^ " baseline")
           (Toolchain.run ?observe config))
  | `Swapram | `Block -> Toolchain.run ?observe config

let compute_uncached ?observe ~seed ~frequency ~jobs benchmarks =
  let cells =
    List.concat_map
      (fun b -> [ (b, `Baseline); (b, `Swapram); (b, `Block) ])
      benchmarks
  in
  let total = List.length cells in
  let finished = ref 0 in
  let progress = !default_progress in
  let on_event = function
    | Parallel.Completed _ ->
        incr finished;
        progress
          (Observe.Progress.Units_done
             { label = "sweep"; finished = !finished; total })
    | _ -> ()
  in
  let results =
    Observe.Telemetry.with_span ~cat:"sweep" "compute"
      ~args:
        [
          ("cells", Observe.Json.Int total);
          ("jobs", Observe.Json.Int jobs);
        ]
      (fun () ->
        Parallel.map ~jobs ~on_event
          (run_cell ?observe ~seed ~frequency)
          cells)
  in
  (* Merge in deterministic (benchmark, system) order — [Parallel.map]
     returns results in input order, so this is the exact structure a
     serial sweep builds. *)
  let rec merge benchmarks results =
    match (benchmarks, results) with
    | [], [] -> []
    | b :: bs, base :: sw :: bl :: rest ->
        let baseline =
          match base with
          | Toolchain.Completed r -> r
          | _ -> assert false (* run_cell wraps expect_completed *)
        in
        (* §5.1 validation is implicit in every sweep: outputs must
           match. Checked in the parent after the merge so it holds
           identically for serial and parallel runs. *)
        (match sw with
        | Toolchain.Completed r when r.Toolchain.uart <> baseline.Toolchain.uart
          ->
            failwith
              (b.Workloads.Bench_def.name ^ ": SwapRAM output differs")
        | _ -> ());
        (match bl with
        | Toolchain.Completed r when r.Toolchain.uart <> baseline.Toolchain.uart
          ->
            failwith
              (b.Workloads.Bench_def.name ^ ": block-cache output differs")
        | _ -> ());
        { benchmark = b; baseline; swapram = sw; block = bl } :: merge bs rest
    | _ -> assert false
  in
  Observe.Telemetry.with_span ~cat:"sweep" "crosscheck" (fun () ->
      merge benchmarks results)

(* The toolchain default engine is resolved into the key rather than
   stored as a wildcard, so flipping the default (bench --engine)
   between sweeps cannot alias memo entries. *)
let key ~seed ~frequency ~observe benchmarks : key =
  ( seed,
    frequency,
    observe,
    Msp430.Cpu.engine_name (Toolchain.default_engine ()),
    List.map (fun b -> b.Workloads.Bench_def.name) benchmarks )

let compute ?(seed = 1) ?benchmarks ?observe ?jobs ~frequency () =
  let benchmarks =
    match benchmarks with Some bs -> bs | None -> Workloads.Suite.all
  in
  let jobs = resolve_jobs jobs in
  (* The full spec keys the memo: runs observed with different specs
     carry different attachments (e.g. the metrics sampler), so they
     must not alias. [jobs] is deliberately not in the key — it cannot
     change any simulated value. *)
  let k = key ~seed ~frequency ~observe benchmarks in
  match Hashtbl.find_opt memo k with
  | Some t ->
      count_hit ();
      t
  | None ->
      count_miss ();
      let t = compute_uncached ?observe ~seed ~frequency ~jobs benchmarks in
      Hashtbl.replace memo k t;
      t

(* --- Profile-guided runs ----------------------------------------------- *)

type pgo_entry = {
  pgo_benchmark : Workloads.Bench_def.t;
  pgo : (Toolchain.pgo_result, string) result;
}

let pgo_cache : (key, pgo_entry list) Hashtbl.t = Hashtbl.create 4

let compute_pgo ?(seed = 1) ?benchmarks ?observe ?jobs ~frequency () =
  let benchmarks =
    match benchmarks with Some bs -> bs | None -> Workloads.Suite.all
  in
  let jobs = resolve_jobs jobs in
  let k = key ~seed ~frequency ~observe benchmarks in
  match Hashtbl.find_opt pgo_cache k with
  | Some t ->
      count_hit ();
      t
  | None ->
      count_miss ();
      let run_one benchmark =
        let config =
          {
            (Toolchain.default_config benchmark) with
            Toolchain.seed;
            frequency;
            caching = Toolchain.Swapram_cache Swapram.Config.default_options;
          }
        in
        { pgo_benchmark = benchmark; pgo = Toolchain.run_pgo ?observe config }
      in
      let total = List.length benchmarks in
      let finished = ref 0 in
      let progress = !default_progress in
      let on_event = function
        | Parallel.Completed _ ->
            incr finished;
            progress
              (Observe.Progress.Units_done
                 { label = "pgo"; finished = !finished; total })
        | _ -> ()
      in
      let t =
        Observe.Telemetry.with_span ~cat:"sweep" "compute_pgo"
          ~args:
            [
              ("benchmarks", Observe.Json.Int total);
              ("jobs", Observe.Json.Int jobs);
            ]
          (fun () -> Parallel.map ~jobs ~on_event run_one benchmarks)
      in
      Hashtbl.replace pgo_cache k t;
      t

let clear_cache () =
  Hashtbl.reset memo;
  Hashtbl.reset pgo_cache
