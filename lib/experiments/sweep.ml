(* Shared evaluation sweep: every benchmark under the three systems
   (unified baseline, SwapRAM, block cache) at a given frequency.
   Table 2, Figures 8 and 9 all read from this matrix; the bench
   driver computes it once per run and hands the value to each.

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

(* One (benchmark x system) cell: the unit of work a forked worker
   executes. *)
let run_cell ?observe ~seed ~frequency (benchmark, caching) =
  let config =
    { (Toolchain.default_config benchmark) with Toolchain.seed; frequency; caching }
  in
  match caching with
  | Toolchain.Baseline ->
      Toolchain.Completed
        (Report.expect_completed
           ~what:(benchmark.Workloads.Bench_def.name ^ " baseline")
           (Toolchain.run ?observe config))
  | _ -> Toolchain.run ?observe config

let compute ?(seed = 1) ?(benchmarks = Workloads.Suite.all) ?observe
    ?(jobs = 1) ?(progress = Observe.Progress.null) ~frequency () =
  (* Per benchmark: baseline, SwapRAM, block cache — the order [merge]
     expects. *)
  let systems = Toolchain.Baseline :: Toolchain.replay_systems in
  let cells =
    List.concat_map (fun b -> List.map (fun c -> (b, c)) systems) benchmarks
  in
  let total = List.length cells in
  let results =
    Observe.Telemetry.with_span ~cat:"sweep" "compute"
      ~args:
        [
          ("cells", Observe.Json.Int total);
          ("jobs", Observe.Json.Int jobs);
        ]
      (fun () ->
        Parallel.map ~jobs
          ~on_event:(Parallel.units_progress ~label:"sweep" ~total progress)
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

(* --- Profile-guided runs ----------------------------------------------- *)

type pgo_entry = {
  pgo_benchmark : Workloads.Bench_def.t;
  pgo : (Toolchain.pgo_result, string) result;
}

(* An observed SwapRAM cell is a run of the training configuration
   with the profiler attached, so it is the training run; a cell
   without an observation is trained by {!Toolchain.run_pgo} itself. *)
let compute_pgo ?(seed = 1) ?observe ?(jobs = 1)
    ?(progress = Observe.Progress.null) ~frequency sweep =
  let run_one e =
    let config =
      {
        (Toolchain.default_config e.benchmark) with
        Toolchain.seed;
        frequency;
        caching = Toolchain.Swapram_cache Swapram.Config.default_options;
      }
    in
    let train =
      match e.swapram with
      | Toolchain.Completed { Toolchain.observation = Some _; _ } ->
          Some e.swapram
      | _ -> None
    in
    {
      pgo_benchmark = e.benchmark;
      pgo = Toolchain.run_pgo ?observe ?train config;
    }
  in
  let total = List.length sweep in
  Observe.Telemetry.with_span ~cat:"sweep" "compute_pgo"
    ~args:
      [
        ("benchmarks", Observe.Json.Int total);
        ("jobs", Observe.Json.Int jobs);
      ]
    (fun () ->
      Parallel.map ~jobs
        ~on_event:(Parallel.units_progress ~label:"pgo" ~total progress)
        run_one sweep)
