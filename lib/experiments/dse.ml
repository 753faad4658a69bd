(* Design-space exploration over the replay kernel.

   One grid point is (workload x SRAM budget x eviction policy x block
   size x frequency). The cache-model simulation is
   frequency-independent, so the expensive axis is only
   (budget x policy x block): one [Replay.Engine.simulate_many] sim
   fans out into one point per frequency by O(1) arithmetic in the
   parent. Sims are what gets parallelized, memoized and persisted;
   objectives and frontiers are always recomputed in the parent from
   the memoized sims, which is why serial, parallel and resumed runs
   are byte-identical by construction.

   The persistent memo store is a {!Store} (see store.mli for the file
   format) holding (key, sim) entries; the sims of a run are appended
   once its pool map returns. Keys are derived from the trace
   *contents* (configuration fingerprint + event count) plus the
   model — never the file path — so a re-recorded or stale trace can
   never satisfy a cached cell (same staleness discipline as
   [Replay_sweep]'s in-memory memo). *)

module Engine = Replay.Engine
module Trace_file = Replay.Trace_file
module Energy = Msp430.Energy
module Platform = Msp430.Platform
module Progress = Observe.Progress
module Json = Observe.Json
module Costs = Swapram.Costs

(* --- Grid --------------------------------------------------------------- *)

type grid = {
  g_budgets : int list;
  g_policies : Engine.policy list;
  g_blocks : int option list;
      (* block-size axis; applied to line-granular (block-cache)
         traces only, normalized to multiples of the recorded slot *)
  g_frequencies : int list; (* MHz; 8 and 24 are the platform points *)
}

let range ~lo ~hi ~step =
  let rec go acc v = if v > hi then List.rev acc else go (v :: acc) (v + step) in
  go [] lo

(* 512 B..16 KiB in 32 B steps spans the paper's SRAM ladder densely
   enough that the default grid clears 20k points on the swapram
   workloads alone. *)
let default_grid =
  {
    g_budgets = range ~lo:512 ~hi:16384 ~step:32;
    g_policies = [ Engine.Lru; Engine.Lfu; Engine.Cost_aware ];
    g_blocks = [ None; Some 256; Some 512 ];
    g_frequencies = [ 8; 24 ];
  }

let validate_grid g =
  if g.g_budgets = [] || g.g_policies = [] || g.g_frequencies = [] then
    Error "dse: empty grid axis"
  else if List.exists (fun b -> b <= 0) g.g_budgets then
    Error "dse: budgets must be positive"
  else if
    List.exists (fun f -> f <> 8 && f <> 24) g.g_frequencies
  then Error "dse: frequencies must be 8 or 24 MHz"
  else Ok ()

(* --- Workloads ---------------------------------------------------------- *)

type workload = {
  w_benchmark : string;
  w_system : string; (* "swapram" or "block" *)
  w_trace : string;
  w_fingerprint : int;
  w_events : int;
  w_line_bytes : int option; (* Some slot for line-granular traces *)
}

let workload_name w = w.w_benchmark ^ "/" ^ w.w_system

(* Record (or reuse) one trace per (benchmark x system) under [dir].
   A trace already on disk whose header fingerprint matches the
   expected configuration is reused without re-recording — that is
   what makes a resumed run with a persistent trace dir skip straight
   to the memo. Pairs whose image does not fit the system are skipped
   (the block cache rejects several Table-2 benchmarks); a crash is an
   error. *)
let record_workloads ?(seed = 1) ?benchmarks
    ?(systems = Toolchain.replay_systems) ?(frequency = Platform.Mhz8) ?jobs
    ?(progress = Progress.null) ~dir () =
  let benchmarks =
    match benchmarks with Some b -> b | None -> Workloads.Suite.all
  in
  let jobs = Sweep.resolve_jobs jobs in
  let pairs =
    List.concat_map
      (fun bd -> List.map (fun s -> (bd, s)) systems)
      benchmarks
  in
  let total = List.length pairs in
  let finished = ref 0 in
  let record_pair (bd, caching) =
    let system_name = Toolchain.caching_name caching in
    let config =
      { (Toolchain.default_config bd) with seed; frequency; caching }
    in
    let expected = Toolchain.config_fingerprint config in
    let trace =
      Filename.concat dir
        (Printf.sprintf "%s-%s.trace" bd.Workloads.Bench_def.short
           system_name)
    in
    let reusable =
      Sys.file_exists trace
      &&
      match Trace_file.read_header trace with
      | Ok h -> h.Trace_file.fingerprint = expected
      | Error _ -> false
    in
    if reusable then Some (bd.Workloads.Bench_def.name, system_name, trace)
    else
      match Toolchain.run_recorded ~trace config with
      | Toolchain.Completed _ ->
          Some (bd.Workloads.Bench_def.name, system_name, trace)
      | Toolchain.Did_not_fit _ -> None
      | Toolchain.Crashed o ->
          failwith
            (Printf.sprintf "dse: recording %s/%s crashed: %s"
               bd.Workloads.Bench_def.name system_name
               (Msp430.Cpu.outcome_name o))
  in
  match
    Observe.Telemetry.with_span ~cat:"dse" "record"
      ~args:[ ("pairs", Json.Int total) ]
      (fun () ->
        Parallel.map ~jobs
          ~on_event:(function
            | Parallel.Completed _ ->
                incr finished;
                progress
                  (Progress.Units_done
                     { label = "record"; finished = !finished; total })
            | _ -> ())
          record_pair pairs)
  with
  | exception Failure msg -> Error msg
  | exception Parallel.Worker_failed msg -> Error msg
  | recorded ->
      (* Decode each trace once here, in the parent: the events
         count pins the memo key, and every forked worker inherits
         the decoded statistics instead of re-decoding. *)
      let workloads =
        List.filter_map
          (Option.map (fun (bench, system, trace) ->
               let l = Sim_plan.load trace in
               {
                 w_benchmark = bench;
                 w_system = system;
                 w_trace = trace;
                 w_fingerprint =
                   l.Engine.header.Trace_file.fingerprint;
                 w_events = l.Engine.events;
                 w_line_bytes =
                   (match l.Engine.header.Trace_file.granularity with
                   | Trace_file.Lines n -> Some n
                   | Trace_file.Functions _ -> None);
               }))
          recorded
      in
      if workloads = [] then Error "dse: no workload fit any system"
      else Ok workloads

(* A persistent [dir] is created if missing and kept; without one the
   traces go to a fresh temporary directory, removed with its files
   when [f] returns or raises. *)
let with_trace_dir ?dir f =
  match dir with
  | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      f dir
  | None ->
      let dir = Filename.temp_file "swapram-dse" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o700;
      Fun.protect
        ~finally:(fun () ->
          Array.iter
            (fun f ->
              try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
            (Sys.readdir dir);
          try Unix.rmdir dir with Unix.Unix_error _ -> ())
        (fun () -> f dir)

(* --- Points and objectives --------------------------------------------- *)

type objectives = {
  o_cycles : int;
  o_energy_nj : float;
  o_sram_bytes : int;
  o_nvm_bytes : int;
}

type point = {
  p_workload : string;
  p_budget : int;
  p_policy : string;
  p_block : int; (* effective block bytes; 0 for function-granular *)
  p_frequency_mhz : int;
  p_obj : objectives;
}

(* First-order objective model, documented in EXPERIMENTS.md.

   Cycles: the trace's exact retargeted cycles at the point's
   frequency, plus the modeled software-cache overhead of the
   simulated configuration — handler entry/exit per miss and, per
   copied word, the copy-loop instructions plus one wait-stated NVM
   read ({!Swapram.Costs} constants). The recorded runtime's own
   overhead is a workload-constant offset, identical across every cell
   of that workload, so within-workload dominance is unaffected.

   Energy: the platform energy model over the same cycle total with
   the fill traffic added to the NVM-read and SRAM-access counters.

   SRAM: the provisioned budget — the resource axis.

   NVM bytes: fill bytes loaded from NVM plus the recorded data writes
   (x2: byte width of a word write) — the wear/bandwidth axis. This
   code cache is read-only, so configuration-dependent NVM pressure is
   fill traffic, not program writes. *)
let objectives_of (l : Engine.loaded) ~frequency_mhz ~budget
    (sim : Engine.sim) =
  match Engine.exact ~frequency_mhz l with
  | Error msg -> failwith ("dse: " ^ msg)
  | Ok t ->
      let wait_states = t.Engine.t_wait_states in
      let params =
        if frequency_mhz = 8 then Energy.point_8mhz else Energy.point_24mhz
      in
      let words = (sim.Engine.s_bytes_loaded + 1) / 2 in
      let handler_instrs =
        sim.Engine.s_misses
        * (Costs.handler_entry_instrs + Costs.handler_exit_instrs)
      in
      let copy_instrs = words * Costs.memcpy_per_word_instrs in
      let cycles =
        t.Engine.t_cycles
        + (Costs.cycles_per_instr * (handler_instrs + copy_instrs))
        + (wait_states * words)
      in
      let report =
        Energy.evaluate_counts params ~cycles
          ~fram_read_misses:(t.Engine.t_fram_read_misses + words)
          ~fram_read_hits:l.Engine.fram_read_hits
          ~fram_writes:l.Engine.fram_writes
          ~sram_accesses:
            (l.Engine.sram_ifetch + l.Engine.sram_data_reads
            + l.Engine.sram_writes + words)
      in
      {
        o_cycles = cycles;
        o_energy_nj = report.Energy.energy_nj;
        o_sram_bytes = budget;
        o_nvm_bytes = sim.Engine.s_bytes_loaded + (2 * l.Engine.fram_writes);
      }

(* --- Pareto ------------------------------------------------------------- *)

(* [a] dominates [b]: no worse on every objective, strictly better on
   at least one (all four minimized). *)
let dominates a b =
  a.o_cycles <= b.o_cycles
  && a.o_energy_nj <= b.o_energy_nj
  && a.o_sram_bytes <= b.o_sram_bytes
  && a.o_nvm_bytes <= b.o_nvm_bytes
  && (a.o_cycles < b.o_cycles
     || a.o_energy_nj < b.o_energy_nj
     || a.o_sram_bytes < b.o_sram_bytes
     || a.o_nvm_bytes < b.o_nvm_bytes)

let obj_key o = (o.o_cycles, o.o_energy_nj, o.o_sram_bytes, o.o_nvm_bytes)

let point_key p =
  (p.p_workload, p.p_budget, p.p_policy, p.p_block, p.p_frequency_mhz)

(* Exact frontier: deduplicate identical objective vectors (keeping
   the canonically-smallest point, so the representative never depends
   on input order), sort lexicographically over the objective vector
   (a dominator is componentwise <= with one strict <, hence always
   lex-before its dominated point once equals are gone), then keep
   each point not dominated by a kept one — transitivity makes
   checking kept points sufficient. O(n log n + n * frontier). Output
   is canonically ordered, so the frontier is a pure function of the
   point *set*. *)
let pareto points =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun p ->
      let k = obj_key p.p_obj in
      match Hashtbl.find_opt tbl k with
      | Some q when point_key q <= point_key p -> ()
      | _ -> Hashtbl.replace tbl k p)
    points;
  let pts = Hashtbl.fold (fun _ p acc -> p :: acc) tbl [] in
  let cmp a b =
    let c = compare (obj_key a.p_obj) (obj_key b.p_obj) in
    if c <> 0 then c else compare (point_key a) (point_key b)
  in
  let pts = List.sort cmp pts in
  let kept = ref [] in
  List.iter
    (fun p ->
      if not (List.exists (fun q -> dominates q.p_obj p.p_obj) !kept) then
        kept := p :: !kept)
    pts;
  List.rev !kept

(* --- Persistent memo store --------------------------------------------- *)

let store_magic = "swapram-dse-memo/2"

type sim_key = {
  sk_fingerprint : int;
  sk_events : int;
  sk_budget : int;
  sk_policy : string;
  sk_block : int;
}

(* The store is grid-independent (a constant fingerprint): entries
   from unrelated grids coexist and a later, larger grid extends the
   store incrementally. *)
let store_fingerprint = "grid-independent"

(* --- Evaluation --------------------------------------------------------- *)

type frontier = {
  f_workload : string;
  f_points : int;
  f_frontier : point list;
}

type outcome = {
  d_workloads : workload list;
  d_points_total : int;
  d_sims_total : int;
  d_sims_computed : int;
  d_sims_cached : int;
  d_sims_collapsed : int;
      (* of the computed sims, how many LRU cells the all-budget
         stack kernel absorbed instead of an individual cache pass *)
  d_frontiers : frontier list; (* per workload, workload input order *)
  d_global_frontier : point list;
}

(* Per-workload model axis: normalize the block axis to multiples of
   the recorded slot ([None] = the slot itself) and deduplicate, so
   two requested block sizes that merge to the same factor cost one
   sim, not two. Function-granular traces have no block axis. *)
let effective_blocks g w =
  match w.w_line_bytes with
  | None -> [ 0 ]
  | Some slot ->
      List.map
        (function
          | None -> slot
          | Some b -> max 1 (b / slot) * slot)
        g.g_blocks
      |> List.sort_uniq compare

(* Policy-major, then block, then budget. The planner regroups the
   missing models by (workload, block) whatever their order, and
   frontiers are canonical (order-invariant), so the order shows only
   in the memo store's append order. *)
let models_for g w =
  List.concat_map
    (fun policy ->
      List.concat_map
        (fun block ->
          List.map
            (fun budget ->
              {
                Engine.m_budget = budget;
                m_policy = policy;
                m_block = (if block = 0 then None else Some block);
              })
            g.g_budgets)
        (effective_blocks g w))
    g.g_policies

let key_of w (m : Engine.model) =
  {
    sk_fingerprint = w.w_fingerprint;
    sk_events = w.w_events;
    sk_budget = m.Engine.m_budget;
    sk_policy = Engine.policy_name m.Engine.m_policy;
    sk_block = Option.value ~default:0 m.Engine.m_block;
  }

let run ?jobs ?(progress = Progress.null) ?store grid workloads =
  match validate_grid grid with
  | Error _ as e -> e
  | Ok () -> (
      let jobs = Sweep.resolve_jobs jobs in
      match
        Store.open_ ~magic:store_magic ~fingerprint:store_fingerprint store
      with
      | Error (Store.Not_a_store path | Store.Fingerprint_mismatch path) ->
          Error (Printf.sprintf "memo store %s: not a dse memo store" path)
      | Ok (memo : (sim_key, Engine.sim) Store.t) -> (
          Fun.protect ~finally:(fun () -> Store.close memo) @@ fun () ->
          (* Staleness gate: each workload's on-disk trace must still
             carry the fingerprint it was planned with. The decode is
             the one the workers inherit and the frontiers read. *)
          let rec gate acc = function
            | [] -> Ok (List.rev acc)
            | w :: rest -> (
                match Engine.load_cached w.w_trace with
                | Error e ->
                    Error
                      (Printf.sprintf "dse: %s: %s" (workload_name w)
                         (Engine.error_message e))
                | Ok l
                  when l.Engine.header.Trace_file.fingerprint
                       <> w.w_fingerprint ->
                    Error
                      (Printf.sprintf
                         "dse: %s: stale trace (fingerprint %d, planned %d)"
                         (workload_name w)
                         l.Engine.header.Trace_file.fingerprint w.w_fingerprint)
                | Ok l -> gate ((w, l, models_for grid w) :: acc) rest)
          in
          match gate [] workloads with
          | Error _ as e -> e
          | Ok per_workload -> (
              let sims_total =
                List.fold_left
                  (fun acc (_, _, ms) -> acc + List.length ms)
                  0 per_workload
              in
              let points_total = sims_total * List.length grid.g_frequencies in
              (* Partition against the store; only missing sims are
                 dispatched. *)
              let missing =
                List.concat_map
                  (fun (w, l, ms) ->
                    List.filter_map
                      (fun m ->
                        if Store.mem memo (key_of w m) then None
                        else Some (w, l, m))
                      ms)
                  per_workload
              in
              let sims_computed = List.length missing in
              let sims_cached = sims_total - sims_computed in
              Observe.Telemetry.counter "dse.sims_computed" sims_computed;
              Observe.Telemetry.counter "dse.sims_cached" sims_cached;
              let finished = ref 0 in
              let advance n =
                finished := !finished + n;
                progress
                  (Progress.Units_done
                     {
                       label = "dse";
                       finished = !finished;
                       total = sims_total;
                     })
              in
              advance sims_cached;
              (* A forked worker's collapsed-sim tally rides back with
                 its sims; a parent-side counter would never see it. *)
              let tasks =
                Array.of_list
                  (Sim_plan.plan (List.map (fun (_, l, m) -> (l, m)) missing))
              in
              let on_pool ev =
                (match ev with
                | Parallel.Completed { task; _ } ->
                    advance (Array.length tasks.(task).Sim_plan.t_index)
                | _ -> ());
                Parallel.worker_progress progress ev
              in
              match
                Observe.Telemetry.with_span ~cat:"dse" "simulate"
                  ~args:
                    [
                      ("sims", Json.Int sims_computed);
                      ("jobs", Json.Int jobs);
                      ("tasks", Json.Int (Array.length tasks));
                    ]
                  (fun () ->
                    Sim_plan.run ~jobs ~retries:3 ~on_event:on_pool
                      (Array.to_list tasks))
              with
              | exception (Failure msg | Parallel.Worker_failed msg) ->
                  Error msg
              | sims, sims_collapsed ->
                  List.iter2
                    (fun (w, _, m) s -> Store.add memo (key_of w m) s)
                    missing sims;
                  Store.flush memo;
                  Observe.Telemetry.counter "dse.sims_collapsed"
                    sims_collapsed;
                  (* Fan sims out into points and frontiers, entirely
                     in the parent. *)
                  let frontiers, all_points =
                    Observe.Telemetry.with_span ~cat:"dse" "frontier"
                      ~args:[ ("points", Json.Int points_total) ]
                      (fun () ->
                        let acc_all = ref [] in
                        let fronts =
                          List.map
                            (fun (w, l, ms) ->
                              let name = workload_name w in
                              let pts =
                                List.concat_map
                                  (fun (m : Engine.model) ->
                                    let sim =
                                      Option.get (Store.find memo (key_of w m))
                                    in
                                    List.map
                                      (fun freq ->
                                        {
                                          p_workload = name;
                                          p_budget = m.Engine.m_budget;
                                          p_policy =
                                            Engine.policy_name
                                              m.Engine.m_policy;
                                          p_block =
                                            Option.value ~default:0
                                              m.Engine.m_block;
                                          p_frequency_mhz = freq;
                                          p_obj =
                                            objectives_of l
                                              ~frequency_mhz:freq
                                              ~budget:m.Engine.m_budget sim;
                                        })
                                      grid.g_frequencies)
                                  ms
                              in
                              acc_all := List.rev_append pts !acc_all;
                              {
                                f_workload = name;
                                f_points = List.length pts;
                                f_frontier = pareto pts;
                              })
                            per_workload
                        in
                        (fronts, !acc_all))
                  in
                  Ok
                    {
                      d_workloads = workloads;
                      d_points_total = points_total;
                      d_sims_total = sims_total;
                      d_sims_computed = sims_computed;
                      d_sims_cached = sims_cached;
                      d_sims_collapsed = sims_collapsed;
                      d_frontiers = frontiers;
                      d_global_frontier = pareto all_points;
                    })))

(* --- JSON --------------------------------------------------------------- *)

let point_json p =
  Json.Obj
    [
      ("workload", Json.String p.p_workload);
      ("budget", Json.Int p.p_budget);
      ("policy", Json.String p.p_policy);
      ("block", Json.Int p.p_block);
      ("frequency_mhz", Json.Int p.p_frequency_mhz);
      ("cycles", Json.Int p.p_obj.o_cycles);
      ("energy_nj", Json.Float p.p_obj.o_energy_nj);
      ("sram_bytes", Json.Int p.p_obj.o_sram_bytes);
      ("nvm_bytes", Json.Int p.p_obj.o_nvm_bytes);
    ]

let grid_json g =
  Json.Obj
    [
      ("budgets", Json.List (List.map (fun b -> Json.Int b) g.g_budgets));
      ( "policies",
        Json.List
          (List.map
             (fun p -> Json.String (Engine.policy_name p))
             g.g_policies) );
      ( "blocks",
        Json.List
          (List.map
             (function None -> Json.Int 0 | Some b -> Json.Int b)
             g.g_blocks) );
      ( "frequencies_mhz",
        Json.List (List.map (fun f -> Json.Int f) g.g_frequencies) );
    ]

(* The deterministic members (grid, counts, frontiers) are identical
   for serial, parallel and resumed runs. *)
let json ?(slim = false) grid outcome =
  let base =
    [
      ("grid", grid_json grid);
      ( "workloads",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("workload", Json.String f.f_workload);
                   ("points", Json.Int f.f_points);
                   ("frontier_points", Json.Int (List.length f.f_frontier));
                   ("frontier", Json.List (List.map point_json f.f_frontier));
                 ])
             outcome.d_frontiers) );
      ( "global_frontier",
        Json.List (List.map point_json outcome.d_global_frontier) );
      ("points_total", Json.Int outcome.d_points_total);
      ("sims_total", Json.Int outcome.d_sims_total);
    ]
  in
  (* Provenance counters are a property of the run (how warm the memo
     store was, hence which ladders were left to compute), not of the
     design space — they would break byte-identity between fresh and
     resumed runs, so they live outside the slim view. *)
  let provenance =
    if slim then []
    else
      [
        ("sims_computed", Json.Int outcome.d_sims_computed);
        ("sims_cached", Json.Int outcome.d_sims_cached);
        ("sims_collapsed", Json.Int outcome.d_sims_collapsed);
      ]
  in
  Json.Obj (base @ provenance)
