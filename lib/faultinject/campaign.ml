(* Monte-Carlo fault-injection campaigns (the statistical counterpart
   of the deterministic sweeps in {!Injector}).

   A campaign is a grid of cells — benchmark x runtime x schedule
   sampler — and, per cell, [trials] independent injected runs, each
   under a power-failure schedule drawn from the cell's sampler with a
   per-trial seed derived deterministically from (campaign seed, cell
   index, trial index). Trials are grouped into fixed-size shards;
   shards are the unit of parallel dispatch, of progress
   checkpointing, and of early stopping. Everything that affects a
   shard's tally is derived from the plan alone, so:

   - a parallel run ([jobs > 1]) aggregates bit-identically to a
     serial one (shard tallies are pure functions of their inputs,
     folded in shard order);
   - a resumed campaign replays finished shards from the progress
     file instead of recomputing them, and lands on the same outcome;
   - early stopping is deterministic: the aggregate uses exactly
     shards [0..k] where [k] is the first index (in shard order) at
     which the cumulative Wilson interval on the crash-consistency
     rate narrows below the configured width — shards beyond [k] are
     discarded even if a parallel round already computed them. *)

module Toolchain = Experiments.Toolchain
module Parallel = Experiments.Parallel
module Store = Experiments.Store
module Progress = Observe.Progress
module Json = Observe.Json

(* ------------------------------------------------------------------ *)
(* Samplers *)

type sampler = Uniform | Bursty | Near_eviction

let all_samplers = [ Uniform; Bursty; Near_eviction ]

let sampler_name = function
  | Uniform -> "uniform"
  | Bursty -> "bursty"
  | Near_eviction -> "near-eviction"

let sampler_of_string s =
  match String.lowercase_ascii s with
  | "uniform" -> Some Uniform
  | "bursty" -> Some Bursty
  | "near-eviction" | "near_eviction" | "neareviction" -> Some Near_eviction
  | _ -> None

(* Scale each sampler's gap distribution from the golden run's counted
   access total, so "a handful of outages per execution" means the
   same thing for a 50k-access microbenchmark and a 2M-access one. *)
let schedule_for sampler (golden : Oracle.golden) seed =
  let acc = max 5_000 golden.Oracle.g_accesses in
  match sampler with
  | Uniform ->
      Schedule.Random
        { seed; min_gap = max 200 (acc / 100); max_gap = max 2_000 (acc / 5) }
  | Bursty ->
      Schedule.Bursty
        {
          seed;
          calm_gap = max 2_000 (acc / 4);
          burst_gap = max 100 (acc / 200);
          burst_len = 4;
        }
  | Near_eviction ->
      Schedule.Near_eviction
        { seed; max_depth = 48; fallback_gap = max 1_000 (acc / 10) }

(* ------------------------------------------------------------------ *)
(* Per-trial seeds: a splitmix64 chain over (seed, cell, trial). The
   Fibonacci-hash avalanche decorrelates neighbouring trials, and the
   chained absorption keeps (cell, trial) pairs collision-free without
   packing assumptions. *)

let sm64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let trial_seed ~seed ~cell ~trial =
  let open Int64 in
  let gamma = 0x9E3779B97F4A7C15L in
  let h = sm64 (add (of_int seed) gamma) in
  let h = sm64 (add (logxor h (of_int cell)) gamma) in
  let h = sm64 (add (logxor h (of_int trial)) gamma) in
  to_int (logand h 0x3FFFFFFFL)

(* ------------------------------------------------------------------ *)
(* Plans *)

type plan = {
  p_benchmarks : Workloads.Bench_def.t list;
  p_runtimes : Toolchain.caching list;
  p_samplers : sampler list;
  p_trials : int;
  p_seed : int;
  p_shard_trials : int;
  p_round_shards : int;
  p_max_reboots : int;
  p_watchdog_scale : int;
  p_ci_width : float option;
  p_fuel : int;
}

let default_runtimes =
  [
    Toolchain.Swapram_cache Swapram.Config.default_options;
    Toolchain.Block_cache Blockcache.Config.default_options;
    Toolchain.Checkpoint_runtime Swapram.Checkpoint.default_options;
  ]

let default_plan =
  {
    p_benchmarks = [ Workloads.Suite.journal; Workloads.Suite.crc ];
    p_runtimes = default_runtimes;
    p_samplers = all_samplers;
    p_trials = 200;
    p_seed = 1;
    p_shard_trials = 25;
    p_round_shards = 16;
    p_max_reboots = 1000;
    p_watchdog_scale = 16;
    p_ci_width = None;
    p_fuel = 500_000_000;
  }

(* ------------------------------------------------------------------ *)
(* Tallies: a commutative-monoid summary of a batch of trials, folded
   strictly in shard order so float sums are reproducible. *)

type tally = {
  t_trials : int;
  t_consistent : int;
  t_completed : int;
  t_mismatches : int;
  t_fault_escapes : int;
  t_livelocks : int;
  t_reboots : int;
  t_torn : int;
  t_reboots_completed : int;
  t_cycles_completed : float;
  t_energy_completed : float;
}

let tally_zero =
  {
    t_trials = 0;
    t_consistent = 0;
    t_completed = 0;
    t_mismatches = 0;
    t_fault_escapes = 0;
    t_livelocks = 0;
    t_reboots = 0;
    t_torn = 0;
    t_reboots_completed = 0;
    t_cycles_completed = 0.;
    t_energy_completed = 0.;
  }

let tally_add a b =
  {
    t_trials = a.t_trials + b.t_trials;
    t_consistent = a.t_consistent + b.t_consistent;
    t_completed = a.t_completed + b.t_completed;
    t_mismatches = a.t_mismatches + b.t_mismatches;
    t_fault_escapes = a.t_fault_escapes + b.t_fault_escapes;
    t_livelocks = a.t_livelocks + b.t_livelocks;
    t_reboots = a.t_reboots + b.t_reboots;
    t_torn = a.t_torn + b.t_torn;
    t_reboots_completed = a.t_reboots_completed + b.t_reboots_completed;
    t_cycles_completed = a.t_cycles_completed +. b.t_cycles_completed;
    t_energy_completed = a.t_energy_completed +. b.t_energy_completed;
  }

let tally_of_report (r : Injector.report) =
  let completed, consistent, mismatch, fault, livelock =
    match r.Injector.r_verdict with
    | Injector.Pass -> (1, 1, 0, 0, 0)
    | Injector.State_mismatch _ | Injector.Return_mismatch _ ->
        (1, 0, 1, 0, 0)
    | Injector.Fault_escape _ -> (0, 0, 0, 1, 0)
    | Injector.Livelock _ -> (0, 0, 0, 0, 1)
    | Injector.Build_failed msg ->
        (* the golden build of the same configuration succeeded in the
           parent, so a per-trial build failure is a harness bug, not
           a data point *)
        failwith ("campaign: trial build failed: " ^ msg)
  in
  {
    t_trials = 1;
    t_consistent = consistent;
    t_completed = completed;
    t_mismatches = mismatch;
    t_fault_escapes = fault;
    t_livelocks = livelock;
    t_reboots = r.Injector.r_reboots;
    t_torn = r.Injector.r_torn_reboots;
    t_reboots_completed = (if completed = 1 then r.Injector.r_reboots else 0);
    t_cycles_completed =
      (if completed = 1 then float_of_int r.Injector.r_cycles else 0.);
    t_energy_completed = (if completed = 1 then r.Injector.r_energy_nj else 0.);
  }

(* ------------------------------------------------------------------ *)
(* Wilson score interval: the small-sample-honest confidence interval
   for a binomial rate (never escapes [0,1], sane at k=0 and k=n). *)

let wilson n k =
  if n <= 0 then (0., 1.)
  else begin
    let z = 1.96 (* the two-sided 95% quantile *) in
    let nf = float_of_int n in
    let p = float_of_int k /. nf in
    let z2 = z *. z in
    let denom = 1. +. (z2 /. nf) in
    let center = p +. (z2 /. (2. *. nf)) in
    let half = z *. sqrt (((p *. (1. -. p)) +. (z2 /. (4. *. nf))) /. nf) in
    (max 0. ((center -. half) /. denom), min 1. ((center +. half) /. denom))
  end

(* ------------------------------------------------------------------ *)
(* Cells and results *)

type cell = {
  cl_benchmark : string;
  cl_runtime : string;
  cl_sampler : sampler;
  cl_label : string;
}

type cell_result = {
  cr_cell : cell;
  cr_golden : Oracle.golden;
  cr_tally : tally;
  cr_shards_done : int;
  cr_shards_total : int;
  cr_stopped_early : bool;
  cr_consistency_ci : float * float;
  cr_progress_ci : float * float;
}

type outcome = {
  o_seed : int;
  o_trials : int;
  o_cells : cell_result list;
  o_wall_seconds : float;
  o_shards_computed : int;
  o_shards_cached : int;  (* replayed from the progress checkpoint *)
}

let cells_of plan =
  List.concat_map
    (fun (b : Workloads.Bench_def.t) ->
      List.concat_map
        (fun rt ->
          List.map
            (fun s ->
              let runtime = Toolchain.caching_name rt in
              ( b,
                rt,
                {
                  cl_benchmark = b.Workloads.Bench_def.name;
                  cl_runtime = runtime;
                  cl_sampler = s;
                  cl_label =
                    Printf.sprintf "%s/%s/%s" b.Workloads.Bench_def.name
                      runtime (sampler_name s);
                } ))
            plan.p_samplers)
        plan.p_runtimes)
    plan.p_benchmarks

(* ------------------------------------------------------------------ *)
(* Progress checkpoint file: an {!Experiments.Store} (see store.mli for
   the file format) of [(label, shard, lo, hi) -> tally] entries,
   appended after every round. The fingerprint covers everything that
   determines a shard's tally — seed, shard size, watchdogs, fuel, and
   the cell grid — but *not* the trial count or the CI width, so a
   finished campaign can be extended (more trials) or re-aggregated
   (tighter interval) without recomputation; partial last shards are
   keyed by their [lo, hi) trial range and simply miss the cache when
   the range changes. *)

let progress_magic = "swapram-campaign-progress/2"

let fingerprint plan =
  String.concat ";"
    ([
       "v1";
       string_of_int plan.p_seed;
       string_of_int plan.p_shard_trials;
       string_of_int plan.p_max_reboots;
       string_of_int plan.p_watchdog_scale;
       string_of_int plan.p_fuel;
     ]
    @ List.map
        (fun (b : Workloads.Bench_def.t) -> "b:" ^ b.Workloads.Bench_def.name)
        plan.p_benchmarks
    @ List.map (fun r -> "r:" ^ Toolchain.caching_name r) plan.p_runtimes
    @ List.map (fun s -> "s:" ^ sampler_name s) plan.p_samplers)

type shard_key = string * int * int * int (* label, shard, lo, hi *)

(* ------------------------------------------------------------------ *)
(* Running *)

exception Campaign_error of string

(* High-frequency dispatch/completion traffic goes out as Worker_state
   only (dashboards render it, plain sinks drop it); the rarer
   lifecycle events additionally keep their historical one-line
   Pool_event form. *)
let pool_event = function
  | Parallel.Dispatched _ | Parallel.Completed _ -> None
  | Parallel.Spawned { pid } -> Some (Printf.sprintf "worker %d spawned" pid)
  | Parallel.Died { pid; task; attempt } ->
      Some
        (Printf.sprintf "worker %d died on shard task %d (attempt %d)" pid
           task attempt)

let run_shard plan config cell golden ~watchdog_cycles ~cell_idx ~lo ~hi =
  let t = ref tally_zero in
  for trial = lo to hi - 1 do
    let seed = trial_seed ~seed:plan.p_seed ~cell:cell_idx ~trial in
    let schedule = schedule_for cell.cl_sampler golden seed in
    let r =
      Injector.run_against ~max_reboots:plan.p_max_reboots ~watchdog_cycles
        ~fuel:plan.p_fuel ~golden config schedule
    in
    t := tally_add !t (tally_of_report r)
  done;
  !t

let run ?(jobs = 1) ?(progress = Progress.null) ?progress_file ?chaos plan =
  if plan.p_trials <= 0 then Error "campaign: trials must be positive"
  else if plan.p_shard_trials <= 0 then
    Error "campaign: shard size must be positive"
  else if plan.p_round_shards <= 0 then
    Error "campaign: round size must be positive"
  else if plan.p_benchmarks = [] || plan.p_runtimes = [] || plan.p_samplers = []
  then Error "campaign: empty cell grid"
  else begin
    let cells = cells_of plan in
    match
      Store.open_ ~magic:progress_magic ~fingerprint:(fingerprint plan)
        progress_file
    with
    | Error (Store.Not_a_store path) ->
        Error
          (Printf.sprintf "progress file %s: not a campaign progress file" path)
    | Error (Store.Fingerprint_mismatch path) ->
        Error
          (Printf.sprintf
             "progress file %s was recorded by a different campaign \
              configuration"
             path)
    | Ok (cache : (shard_key, tally) Store.t) ->
        Fun.protect ~finally:(fun () -> Store.close cache)
        @@ fun () ->
        let t0 = Unix.gettimeofday () in
        progress
          (Progress.Campaign_started
             { cells = List.length cells; trials = plan.p_trials });
        let on_pool ev =
          Parallel.worker_progress progress ev;
          Option.iter
            (fun s -> progress (Progress.Pool_event s))
            (pool_event ev)
        in
        let shard_range s =
          let lo = s * plan.p_shard_trials in
          (lo, min plan.p_trials (lo + plan.p_shard_trials))
        in
        let shards_computed = ref 0 and shards_cached = ref 0 in
        let run_cell cell_idx (bench, rt, cell) =
          Observe.Telemetry.with_span ~cat:"campaign"
            ("cell:" ^ cell.cl_label)
          @@ fun () ->
          let config =
            { (Toolchain.default_config bench) with Toolchain.caching = rt }
          in
          match
            Observe.Telemetry.with_span ~cat:"campaign" "golden"
              ~args:[ ("cell", Json.String cell.cl_label) ] (fun () ->
                Oracle.golden ~fuel:plan.p_fuel config)
          with
          | Error e ->
              raise
                (Campaign_error
                   (Printf.sprintf "%s: golden run failed: %s" cell.cl_label e))
          | Ok golden ->
              progress
                (Progress.Golden_ready
                   { cell = cell.cl_label; cycles = golden.Oracle.g_cycles });
              let watchdog_cycles =
                max 2_000_000
                  (golden.Oracle.g_cycles * plan.p_watchdog_scale)
              in
              let shards_total =
                (plan.p_trials + plan.p_shard_trials - 1)
                / plan.p_shard_trials
              in
              let tallies = Array.make shards_total tally_zero in
              let key s =
                let lo, hi = shard_range s in
                (cell.cl_label, s, lo, hi)
              in
              let stop = ref None in
              let next = ref 0 in
              while !stop = None && !next < shards_total do
                let round_end =
                  min shards_total (!next + plan.p_round_shards)
                in
                let idxs = List.init (round_end - !next) (fun i -> !next + i) in
                let work =
                  List.filter (fun s -> not (Store.mem cache (key s))) idxs
                in
                shards_computed := !shards_computed + List.length work;
                shards_cached :=
                  !shards_cached + List.length idxs - List.length work;
                Observe.Telemetry.counter "campaign.shards_computed"
                  !shards_computed;
                Observe.Telemetry.counter "campaign.shards_cached"
                  !shards_cached;
                let computed =
                  Parallel.map ~jobs ~retries:3 ~on_event:on_pool
                    (fun s ->
                      (match chaos with
                      | Some f -> f ~cell:cell.cl_label ~shard:s
                      | None -> ());
                      let lo, hi = shard_range s in
                      run_shard plan config cell golden ~watchdog_cycles
                        ~cell_idx ~lo ~hi)
                    work
                in
                List.iter2 (fun s t -> Store.add cache (key s) t) work computed;
                Store.flush cache;
                List.iter
                  (fun s ->
                    let t = Option.get (Store.find cache (key s)) in
                    tallies.(s) <- t;
                    progress
                      (Progress.Shard_done
                         {
                           cell = cell.cl_label;
                           shard = s;
                           shards = shards_total;
                           trials_done =
                             (s * plan.p_shard_trials) + t.t_trials;
                           trials = plan.p_trials;
                           cached = not (List.memq s work);
                         }))
                  idxs;
                (match plan.p_ci_width with
                | None -> ()
                | Some w ->
                    let acc = ref tally_zero in
                    (try
                       for s = 0 to round_end - 1 do
                         acc := tally_add !acc tallies.(s);
                         let lo, hi =
                           wilson !acc.t_trials !acc.t_consistent
                         in
                         if hi -. lo <= w then begin
                           stop := Some s;
                           raise Exit
                         end
                       done
                     with Exit -> ()));
                next := round_end
              done;
              let used =
                match !stop with Some s -> s + 1 | None -> shards_total
              in
              let tally = ref tally_zero in
              for s = 0 to used - 1 do
                tally := tally_add !tally tallies.(s)
              done;
              let tally = !tally in
              progress
                (Progress.Cell_done
                   {
                     cell = cell.cl_label;
                     trials = tally.t_trials;
                     consistent = tally.t_consistent;
                     stopped_early = !stop <> None;
                   });
              {
                cr_cell = cell;
                cr_golden = golden;
                cr_tally = tally;
                cr_shards_done = used;
                cr_shards_total = shards_total;
                cr_stopped_early = !stop <> None;
                cr_consistency_ci =
                  wilson tally.t_trials tally.t_consistent;
                cr_progress_ci = wilson tally.t_trials tally.t_completed;
              }
        in
        try
          let cell_results = List.mapi run_cell cells in
          let trials =
            List.fold_left
              (fun a c -> a + c.cr_tally.t_trials)
              0 cell_results
          in
          let outcome =
            {
              o_seed = plan.p_seed;
              o_trials = trials;
              o_cells = cell_results;
              o_wall_seconds = Unix.gettimeofday () -. t0;
              o_shards_computed = !shards_computed;
              o_shards_cached = !shards_cached;
            }
          in
          progress
            (Progress.Campaign_done
               {
                 cells = List.length cells;
                 trials;
                 seconds = outcome.o_wall_seconds;
               });
          Ok outcome
        with
        | Campaign_error msg -> Error msg
        | Parallel.Worker_failed msg ->
            Error ("campaign: worker pool failed: " ^ msg)
        | Failure msg -> Error ("campaign: " ^ msg)
  end

(* ------------------------------------------------------------------ *)
(* Derived statistics, rendering *)

let rate num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let mean_reboots_to_completion t =
  if t.t_completed = 0 then nan
  else float_of_int t.t_reboots_completed /. float_of_int t.t_completed

let cycle_overhead cr =
  if cr.cr_tally.t_completed = 0 then nan
  else
    cr.cr_tally.t_cycles_completed
    /. float_of_int cr.cr_tally.t_completed
    /. float_of_int cr.cr_golden.Oracle.g_cycles

let energy_overhead cr =
  if cr.cr_tally.t_completed = 0 then nan
  else
    cr.cr_tally.t_energy_completed
    /. float_of_int cr.cr_tally.t_completed
    /. cr.cr_golden.Oracle.g_energy_nj

let json_float f = if Float.is_nan f then Json.Null else Json.Float f

let cell_to_json cr =
  let t = cr.cr_tally in
  let clo, chi = cr.cr_consistency_ci in
  let plo, phi = cr.cr_progress_ci in
  Json.Obj
    [
      ("benchmark", Json.String cr.cr_cell.cl_benchmark);
      ("runtime", Json.String cr.cr_cell.cl_runtime);
      ("sampler", Json.String (sampler_name cr.cr_cell.cl_sampler));
      ("trials", Json.Int t.t_trials);
      ("consistent", Json.Int t.t_consistent);
      ("completed", Json.Int t.t_completed);
      ("mismatches", Json.Int t.t_mismatches);
      ("fault_escapes", Json.Int t.t_fault_escapes);
      ("livelocks", Json.Int t.t_livelocks);
      ("reboots", Json.Int t.t_reboots);
      ("torn_reboots", Json.Int t.t_torn);
      ("consistency_rate", Json.Float (rate t.t_consistent t.t_trials));
      ("consistency_ci", Json.List [ Json.Float clo; Json.Float chi ]);
      ("progress_rate", Json.Float (rate t.t_completed t.t_trials));
      ("progress_ci", Json.List [ Json.Float plo; Json.Float phi ]);
      ("mean_reboots_to_completion", json_float (mean_reboots_to_completion t));
      ("cycle_overhead", json_float (cycle_overhead cr));
      ("energy_overhead", json_float (energy_overhead cr));
      ( "golden",
        Json.Obj
          [
            ("cycles", Json.Int cr.cr_golden.Oracle.g_cycles);
            ("energy_nj", Json.Float cr.cr_golden.Oracle.g_energy_nj);
            ("accesses", Json.Int cr.cr_golden.Oracle.g_accesses);
          ] );
      ("shards_done", Json.Int cr.cr_shards_done);
      ("shards_total", Json.Int cr.cr_shards_total);
      ("stopped_early", Json.Bool cr.cr_stopped_early);
    ]

(* Wall-clock time is deliberately excluded: the JSON report of a
   campaign is a pure function of its plan, so CI can assert
   determinism by diffing two runs byte for byte. *)
let to_json outcome =
  Json.Obj
    [
      ("seed", Json.Int outcome.o_seed);
      ("trials", Json.Int outcome.o_trials);
      ("cells", Json.List (List.map cell_to_json outcome.o_cells));
    ]

let table outcome =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-38s %7s %9s %15s %9s %8s %7s %7s\n" "cell" "trials"
       "consist" "95% CI" "progress" "reb/done" "cyc x" "nrg x");
  List.iter
    (fun cr ->
      let t = cr.cr_tally in
      let clo, chi = cr.cr_consistency_ci in
      let fmt_x v = if Float.is_nan v then "-" else Printf.sprintf "%.2f" v in
      Buffer.add_string b
        (Printf.sprintf "%-38s %7d %9.3f [%5.3f,%5.3f] %9.3f %8s %7s %7s%s\n"
           cr.cr_cell.cl_label t.t_trials
           (rate t.t_consistent t.t_trials)
           clo chi
           (rate t.t_completed t.t_trials)
           (fmt_x (mean_reboots_to_completion t))
           (fmt_x (cycle_overhead cr))
           (fmt_x (energy_overhead cr))
           (if cr.cr_stopped_early then " *" else "")))
    outcome.o_cells;
  Buffer.add_string b
    (Printf.sprintf "%d trials total, seed %d%s\n" outcome.o_trials
       outcome.o_seed
       (if List.exists (fun c -> c.cr_stopped_early) outcome.o_cells then
          "  (* = early stop below CI width)"
        else ""));
  Buffer.add_string b
    (Printf.sprintf "shards: %d computed, %d replayed from checkpoint\n"
       outcome.o_shards_computed outcome.o_shards_cached);
  Buffer.contents b
