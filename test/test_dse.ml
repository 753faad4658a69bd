(* Design-space exploration engine: Pareto-frontier correctness as
   QCheck2 properties (dominance, dedup, input-order invariance), the
   batched simulate_many against one-at-a-time simulate, the
   single-pass all-budget stack kernel and the lazy-heap victim
   selection against linear-scan references (random run streams and a
   real Table-2 trace), the MRC tracker against per-budget LRU where
   no unit is bypassed, chunked parallel dispatch against List.map,
   the (trace, block) planner (an exact partition, costliest first,
   sims = List.map simulate), frontier identity across worker counts
   end-to-end, and the persistent memo store (warm re-runs compute
   nothing, a partially warm one computes the rest; a stale trace is
   an error, not a silent recompute), and the LFU / Cost_aware
   budget intervals (a pass at B equals the reference at every budget
   below its [hi]; interval ladders equal per-budget passes). *)

module Engine = Replay.Engine
module Trace_file = Replay.Trace_file
module Toolchain = Experiments.Toolchain
module Parallel = Experiments.Parallel
module Dse = Experiments.Dse
module Json = Observe.Json

(* --- Pareto-frontier properties ----------------------------------------- *)

(* Small objective ranges force plenty of ties, duplicates and
   dominance chains; point keys collide too, exercising the
   canonical-smallest dedup tie-break. *)
let gen_point =
  let open QCheck2.Gen in
  let* c = int_range 0 4 in
  let* e = int_range 0 4 in
  let* s = int_range 0 4 in
  let* n = int_range 0 4 in
  let* workload = oneofl [ "a/swapram"; "b/block" ] in
  let* budget = int_range 0 3 in
  let* policy = oneofl [ "lru"; "lfu" ] in
  let+ freq = oneofl [ 8; 24 ] in
  {
    Dse.p_workload = workload;
    p_budget = budget;
    p_policy = policy;
    p_block = 0;
    p_frequency_mhz = freq;
    p_obj =
      {
        Dse.o_cycles = c;
        o_energy_nj = float_of_int e;
        o_sram_bytes = s;
        o_nvm_bytes = n;
      };
  }

let gen_points = QCheck2.Gen.(list_size (int_range 0 40) gen_point)

let prop_pareto_sound =
  QCheck2.Test.make ~count:500 ~name:"pareto: subset, non-dominated, complete"
    gen_points (fun ps ->
      let front = Dse.pareto ps in
      List.iter
        (fun f ->
          if not (List.mem f ps) then
            QCheck2.Test.fail_reportf "frontier point not in the input";
          if List.exists (fun q -> Dse.dominates q.Dse.p_obj f.Dse.p_obj) ps
          then QCheck2.Test.fail_reportf "frontier point is dominated")
        front;
      (* complete: every input point is dominated by — or ties the
         objectives of — some frontier point *)
      List.iter
        (fun p ->
          if
            not
              (List.exists
                 (fun f ->
                   f.Dse.p_obj = p.Dse.p_obj
                   || Dse.dominates f.Dse.p_obj p.Dse.p_obj)
                 front)
          then QCheck2.Test.fail_reportf "input point escapes the frontier")
        ps;
      true)

let prop_pareto_dedup =
  QCheck2.Test.make ~count:500 ~name:"pareto: objective vectors deduplicated"
    gen_points (fun ps ->
      let objs = List.map (fun p -> p.Dse.p_obj) (Dse.pareto ps) in
      List.length objs = List.length (List.sort_uniq compare objs))

let prop_pareto_order_invariant =
  QCheck2.Test.make ~count:500 ~name:"pareto: invariant to input order"
    QCheck2.Gen.(gen_points >>= fun ps -> pair (return ps) (shuffle_l ps))
    (fun (ps, shuffled) -> Dse.pareto ps = Dse.pareto shuffled)

(* --- simulate_many = List.map simulate ---------------------------------- *)

let with_temp_trace f =
  let path = Filename.temp_file "dse-test-" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let gen_model =
  let open QCheck2.Gen in
  let* budget = int_range 1 2048 in
  let* policy = oneofl [ Engine.Lru; Engine.Lfu; Engine.Cost_aware ] in
  let+ block = oneofl [ None; Some 32; Some 64; Some 256 ] in
  { Engine.m_budget = budget; m_policy = policy; m_block = block }

let prop_simulate_many_batches system =
  QCheck2.Test.make ~count:20
    ~name:("simulate_many = List.map simulate (" ^ system ^ ")")
    QCheck2.Gen.(list_size (int_range 0 12) gen_model)
    (fun models ->
      with_temp_trace (fun trace ->
          ignore (Test_replay.record_tiny ~system trace);
          let l = Result.get_ok (Engine.load trace) in
          Engine.simulate_many l models = List.map (Engine.simulate l) models))

(* --- Single-pass all-budget kernel and lazy-heap victim ------------------ *)

(* Reference cache model: the straightforward linear victim scan over
   the full unit range — the oracle that both the engine's lazy-heap
   victim selection and the all-budget stack kernel must match
   observationally. Victim = minimum (policy metric, last use); the
   last-use clock is unique, so the order is total and no scan-order
   tie-break can hide. *)
let reference_sim ~units ~budget ~policy runs =
  let n = max units 1 in
  let r_size = Array.make n 0 in
  let r_last = Array.make n 0 in
  let r_uses = Array.make n 0 in
  let resident = Array.make n false in
  let seen = Array.make n false in
  let occupancy = ref 0 in
  let clock = ref 0 in
  let refs = ref 0 in
  let misses = ref 0 in
  let cold = ref 0 in
  let evictions = ref 0 in
  let loaded = ref 0 in
  let metric u =
    match policy with
    | Engine.Lru -> r_last.(u)
    | Engine.Lfu -> r_uses.(u)
    | Engine.Cost_aware -> r_uses.(u) * r_size.(u)
  in
  let victim () =
    let best = ref (-1) in
    for u = 0 to n - 1 do
      if
        resident.(u)
        && (!best < 0
           || metric u < metric !best
           || (metric u = metric !best && r_last.(u) < r_last.(!best)))
      then best := u
    done;
    !best
  in
  Array.iter
    (fun (u, bytes, len) ->
      refs := !refs + len;
      clock := !clock + len;
      if resident.(u) then begin
        r_last.(u) <- !clock;
        r_uses.(u) <- r_uses.(u) + len
      end
      else begin
        if not seen.(u) then begin
          seen.(u) <- true;
          incr cold
        end;
        if bytes <= budget then begin
          incr misses;
          while !occupancy + bytes > budget do
            let k = victim () in
            resident.(k) <- false;
            occupancy := !occupancy - r_size.(k);
            incr evictions
          done;
          resident.(u) <- true;
          r_size.(u) <- bytes;
          r_last.(u) <- !clock;
          r_uses.(u) <- len;
          occupancy := !occupancy + bytes;
          loaded := !loaded + bytes
        end
        else misses := !misses + len
      end)
    runs;
  {
    Engine.s_refs = !refs;
    s_misses = !misses;
    s_cold_misses = !cold;
    s_evictions = !evictions;
    s_bytes_loaded = !loaded;
    s_miss_rate =
      (if !refs = 0 then 0.0 else float_of_int !misses /. float_of_int !refs);
  }

(* Random run streams with per-unit-constant sizes (what recorded
   traces guarantee). Small unit counts and lengths force heavy
   eviction traffic and plenty of LFU/Cost metric ties; size and
   budget ranges overlap so budgets straddle unit sizes, exercising
   the bypass/eligibility-group edge of the kernel. *)
let gen_run_stream =
  let open QCheck2.Gen in
  let* units = int_range 1 10 in
  let* sizes = list_repeat units (int_range 1 64) in
  let sizes = Array.of_list sizes in
  let+ refs =
    list_size (int_range 0 80) (pair (int_range 0 (units - 1)) (int_range 1 3))
  in
  (units, Array.of_list (List.map (fun (u, len) -> (u, sizes.(u), len)) refs))

let prop_heap_victim =
  QCheck2.Test.make ~count:400
    ~name:"sim_core lazy-heap victim = linear-scan reference"
    QCheck2.Gen.(
      triple gen_run_stream
        (oneofl [ Engine.Lru; Engine.Lfu; Engine.Cost_aware ])
        (int_range 1 160))
    (fun ((units, runs), policy, budget) ->
      Engine.simulate_runs ~units ~budget ~policy runs
      = reference_sim ~units ~budget ~policy runs)

let prop_all_budgets =
  QCheck2.Test.make ~count:400
    ~name:"all-budgets kernel = per-budget passes (random streams)"
    QCheck2.Gen.(
      pair gen_run_stream (list_size (int_range 1 10) (int_range 1 200)))
    (fun ((units, runs), budgets) ->
      Engine.simulate_runs_all_budgets ~units ~budgets runs
      = List.map
          (fun budget ->
            Engine.simulate_runs ~units ~budget ~policy:Engine.Lru runs)
          budgets)

(* The MRC never bypasses a unit, so it is LRU's exact model only at
   budgets no smaller than the largest unit: there, the tracker fed
   the same runs predicts [simulate_runs ~policy:Lru]'s misses, cold
   misses and bytes loaded. *)
let reuse_of_runs runs =
  let r = Observe.Reuse.create () in
  Array.iter
    (fun (u, bytes, len) -> Observe.Reuse.access r ~unit_id:u ~bytes ~len)
    runs;
  r

let prop_mrc_is_lru =
  QCheck2.Test.make ~count:400
    ~name:"MRC = per-budget LRU at budgets >= the largest unit"
    QCheck2.Gen.(
      let* units, runs = gen_run_stream in
      let largest = Array.fold_left (fun m (_, b, _) -> max m b) 0 runs in
      let+ budget = int_range largest 200 in
      (units, runs, budget))
    (fun (units, runs, budget) ->
      let r = reuse_of_runs runs in
      let s = Engine.simulate_runs ~units ~budget ~policy:Engine.Lru runs in
      Observe.Reuse.predicted_misses r ~budget = s.Engine.s_misses
      && Observe.Reuse.cold_misses r = s.Engine.s_cold_misses
      && Observe.Reuse.fill_bytes r ~budget = s.Engine.s_bytes_loaded)

(* Below the largest unit the two part ways: LRU at 50 B bypasses the
   100 B unit, so unit 0 stays resident and re-hits; the MRC stacks
   the 100 B unit above it and predicts a third miss. *)
let mrc_no_bypass_test () =
  let runs = [| (0, 10, 1); (1, 100, 1); (0, 10, 1) |] in
  let s = Engine.simulate_runs ~units:2 ~budget:50 ~policy:Engine.Lru runs in
  Alcotest.(check int) "LRU misses at 50 B" 2 s.Engine.s_misses;
  Alcotest.(check int)
    "MRC predicted misses at 50 B" 3
    (Observe.Reuse.predicted_misses (reuse_of_runs runs) ~budget:50)

(* The same differential on a real Table-2 trace at both granularities:
   function-granular swapram and line-granular block cache, the latter
   also under a block-size override (re-bucketed units). A dense
   512-step ladder plus off-grid budgets lands on both sides of every
   function size. *)
let table2_all_budgets_test () =
  let budgets =
    List.init 32 (fun i -> 512 + (i * 512)) @ [ 700; 3333; 16384 ]
  in
  let config_of system =
    {
      (Toolchain.default_config Workloads.Suite.crc) with
      Toolchain.caching = Option.get (Toolchain.caching_of_name system);
    }
  in
  let check_system system blocks =
    with_temp_trace (fun trace ->
        match Toolchain.run_recorded ~trace (config_of system) with
        | Toolchain.Completed _ ->
            let l = Result.get_ok (Engine.load trace) in
            List.iter
              (fun block ->
                let expected =
                  List.map
                    (fun b ->
                      Engine.simulate l
                        {
                          Engine.m_budget = b;
                          m_policy = Engine.Lru;
                          m_block = block;
                        })
                    budgets
                in
                Alcotest.(check bool)
                  (Printf.sprintf "crc/%s block=%s all-budgets = per-budget"
                     system
                     (match block with
                     | None -> "recorded"
                     | Some b -> string_of_int b))
                  true
                  (Engine.simulate_all_budgets ?block l budgets = expected))
              blocks
        | _ -> () (* does not fit this system: vacuously equivalent *))
  in
  check_system "swapram" [ None ];
  check_system "block" [ None; Some 256 ]

(* A stream long and wide enough that the tracker's slot stack first
   doubles (1500 live units outgrow the initial 1024 slots) and then
   compacts in place many times (tens of thousands of transitions over
   a shifting working set): the kernel must still equal per-budget
   passes, and so must the tracker's one-sweep readout at the budgets
   no smaller than the largest unit (13 B). *)
let stack_compaction_test () =
  let units = 1500 in
  let size u = 1 + (u * 7 mod 13) in
  let seed = ref 12345 in
  let next_rand bound =
    seed := (!seed * 1103515245 + 12345) land 0x3fffffff;
    !seed mod bound
  in
  let runs =
    Array.init 40_000 (fun i ->
        let u =
          if i < units then i
          else ((i / 4000 * 97) + next_rand 300) mod units
        in
        (u, size u, 1 + next_rand 3))
  in
  let budgets = [ 1; 7; 13; 40; 200; 777; 1500; 4000; 20000 ] in
  let per_budget =
    List.map
      (fun budget ->
        Engine.simulate_runs ~units ~budget ~policy:Engine.Lru runs)
      budgets
  in
  Alcotest.(check bool)
    "all-budgets = per-budget" true
    (Engine.simulate_runs_all_budgets ~units ~budgets runs = per_budget);
  let large = List.filter (fun b -> b >= 13) budgets in
  Alcotest.(check (list (pair int int)))
    "MRC sweep = per-budget LRU"
    (List.filter_map
       (fun (b, s) ->
         if b >= 13 then Some (s.Engine.s_misses, s.Engine.s_bytes_loaded)
         else None)
       (List.combine budgets per_budget))
    (Array.to_list
       (Observe.Reuse.at_budgets (reuse_of_runs runs) (Array.of_list large)))

(* --- map_chunked = List.map --------------------------------------------- *)

(* The chunk width follows the list length and [jobs]: 1 to 7 here. *)
let prop_map_chunked =
  QCheck2.Test.make ~count:15 ~name:"map_chunked = List.map (any chunk/jobs)"
    QCheck2.Gen.(
      pair (list_size (int_range 0 30) (int_range 0 1000)) (int_range 1 3))
    (fun (xs, jobs) ->
      Parallel.map_chunked ~jobs (fun x -> (x * x) + 1) xs
      = List.map (fun x -> (x * x) + 1) xs)

(* --- The (trace, block) planner -------------------------------------------- *)

(* The two tiny recordings, made and decoded once per process when the
   planner property first runs (workers exit without running
   [at_exit]). *)
let planner_traces =
  lazy
    (let paths =
       [| Filename.temp_file "dse-test-" ".trace";
          Filename.temp_file "dse-test-" ".trace" |]
     in
     at_exit (fun () ->
         Array.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths);
     ignore (Test_replay.record_tiny paths.(0));
     ignore (Test_replay.record_tiny ~system:"block" paths.(1));
     Array.map (fun p -> Result.get_ok (Engine.load p)) paths)

let prop_planner =
  let module P = Experiments.Sim_plan in
  QCheck2.Test.make ~count:15
    ~name:"planner: (trace, block) partition, costliest first, = List.map"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 24) (pair (int_range 0 1) gen_model))
        (int_range 1 3))
    (fun (picks, jobs) ->
      let traces = Lazy.force planner_traces in
      let pairs = List.map (fun (k, m) -> (traces.(k), m)) picks in
      let arr = Array.of_list pairs in
      let tasks = P.plan pairs in
      let indices =
        List.concat_map (fun (t : P.task) -> Array.to_list t.t_index) tasks
      in
      if List.sort compare indices <> List.init (Array.length arr) Fun.id then
        QCheck2.Test.fail_report "tasks do not partition the input";
      List.iter
        (fun (t : P.task) ->
          Array.iter
            (fun i ->
              let l, m = arr.(i) in
              if l != t.t_loaded || Engine.sim_block l m <> t.t_block then
                QCheck2.Test.fail_report "a task mixes traces or blocks")
            t.t_index)
        tasks;
      let rec sorted = function
        | (a : P.task) :: (b :: _ as rest) -> a.t_cost >= b.t_cost && sorted rest
        | _ -> true
      in
      if not (sorted tasks) then QCheck2.Test.fail_report "cost increases";
      (* a task's LRU models are one ladder, collapsed from two up *)
      let lru_ladders =
        List.fold_left
          (fun acc (t : P.task) ->
            let k =
              List.length
                (List.filter (fun m -> m.Engine.m_policy = Engine.Lru) t.t_models)
            in
            if k >= 2 then acc + k else acc)
          0 tasks
      in
      let sims, collapsed = P.run ~jobs tasks in
      collapsed = lru_ladders
      && sims = List.map (fun (l, m) -> Engine.simulate l m) pairs)

(* --- End-to-end: serial = parallel = chunked frontiers ------------------- *)

let workload_of ~benchmark ~system trace =
  let l = Result.get_ok (Engine.load trace) in
  let h = l.Engine.header in
  {
    Dse.w_benchmark = benchmark;
    w_system = system;
    w_trace = trace;
    w_fingerprint = h.Trace_file.fingerprint;
    w_events = l.Engine.events;
    w_line_bytes =
      (match h.Trace_file.granularity with
      | Trace_file.Lines n -> Some n
      | Trace_file.Functions _ -> None);
  }

let tiny_grid =
  {
    Dse.g_budgets = [ 64; 128; 256; 768 ];
    g_policies = [ Engine.Lru; Engine.Lfu; Engine.Cost_aware ];
    g_blocks = [ None; Some 64 ];
    g_frequencies = [ 8; 24 ];
  }

let with_tiny_workloads f =
  with_temp_trace (fun sw_trace ->
      with_temp_trace (fun bl_trace ->
          ignore (Test_replay.record_tiny sw_trace);
          ignore (Test_replay.record_tiny ~system:"block" bl_trace);
          f
            [
              workload_of ~benchmark:"tiny" ~system:"swapram" sw_trace;
              workload_of ~benchmark:"tiny" ~system:"block" bl_trace;
            ]))

let slim_json grid outcome =
  Json.to_string_pretty (Dse.json ~slim:true grid outcome)

let run_exn ?(grid = tiny_grid) ?jobs ?store workloads =
  match Dse.run ?jobs ?store grid workloads with
  | Ok o -> o
  | Error e -> Alcotest.failf "dse run: %s" e

(* Any worker count gives the serial frontiers, and a cold run's
   collapsed-LRU count is fixed by the (workload, block) ladders, not
   by how the pool spread them. *)
let execution_invariance_test () =
  with_tiny_workloads (fun workloads ->
      let serial = run_exn ~jobs:1 workloads in
      List.iter
        (fun jobs ->
          let o = run_exn ~jobs workloads in
          Alcotest.(check string)
            (Printf.sprintf "jobs %d = serial" jobs)
            (slim_json tiny_grid serial)
            (slim_json tiny_grid o);
          Alcotest.(check int)
            (Printf.sprintf "jobs %d collapses as many sims" jobs)
            serial.Dse.d_sims_collapsed o.Dse.d_sims_collapsed)
        [ 2; 3 ];
      Alcotest.(check bool)
        "grid evaluated" true
        (serial.Dse.d_points_total > 0 && serial.Dse.d_sims_total > 0
       && serial.Dse.d_sims_collapsed > 0))

(* --- Persistent memo store ---------------------------------------------- *)

let with_temp_store f =
  let path = Filename.temp_file "dse-test-" ".memo" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let warm_store_test () =
  with_tiny_workloads (fun workloads ->
      with_temp_store (fun store ->
          let cold = run_exn ~jobs:2 ~store workloads in
          Alcotest.(check int)
            "cold run computes everything" cold.Dse.d_sims_total
            cold.Dse.d_sims_computed;
          let warm = run_exn ~jobs:1 ~store workloads in
          Alcotest.(check int) "warm run computes nothing" 0
            warm.Dse.d_sims_computed;
          Alcotest.(check int)
            "warm run is fully cached" warm.Dse.d_sims_total
            warm.Dse.d_sims_cached;
          Alcotest.(check string)
            "warm frontier = cold frontier"
            (slim_json tiny_grid cold)
            (slim_json tiny_grid warm)))

(* A store seeded by a sub-grid (half the budgets, LRU only) leaves the
   full run partial ladders to compute; at any worker count it must
   compute exactly the rest and reproduce a cold serial run. *)
let partial_store_test () =
  with_tiny_workloads (fun workloads ->
      let cold = run_exn ~jobs:1 workloads in
      let seed_grid =
        { tiny_grid with Dse.g_budgets = [ 64; 256 ]; g_policies = [ Engine.Lru ] }
      in
      List.iter
        (fun jobs ->
          with_temp_store (fun store ->
              let seeded = run_exn ~grid:seed_grid ~jobs:1 ~store workloads in
              let o = run_exn ~jobs ~store workloads in
              Alcotest.(check string)
                (Printf.sprintf "jobs %d over a partial store = cold serial"
                   jobs)
                (slim_json tiny_grid cold) (slim_json tiny_grid o);
              Alcotest.(check int)
                (Printf.sprintf "jobs %d computes only the missing sims" jobs)
                (o.Dse.d_sims_total - seeded.Dse.d_sims_total)
                o.Dse.d_sims_computed))
        [ 1; 3 ])

(* A workload whose on-disk trace was re-recorded under a different
   configuration no longer matches its planned fingerprint: the run
   must refuse, not silently mix stale memo entries with fresh sims. *)
let stale_trace_test () =
  with_temp_trace (fun trace ->
      ignore (Test_replay.record_tiny trace);
      let workload = workload_of ~benchmark:"tiny" ~system:"swapram" trace in
      let reseeded =
        { (Test_replay.tiny_config ()) with Toolchain.seed = 2 }
      in
      (match Toolchain.run_recorded ~trace reseeded with
      | Toolchain.Completed _ -> ()
      | _ -> Alcotest.fail "re-recording failed");
      Engine.clear_load_cache ();
      match Dse.run ~jobs:1 tiny_grid [ workload ] with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "stale trace must be an error")

(* --- Budget-interval ladders ---------------------------------------------- *)

(* The interval lemma: a pass at B answers every budget in [B, hi).
   Checked against the linear-scan reference at every budget of the
   interval, up to 200 past B (the interval is unbounded once no unit
   was evicted or bypassed). *)
let prop_interval =
  QCheck2.Test.make ~count:400
    ~name:"sim_core at B = reference at every budget in [B, hi)"
    QCheck2.Gen.(
      triple gen_run_stream
        (oneofl [ Engine.Lru; Engine.Lfu; Engine.Cost_aware ])
        (int_range 1 160))
    (fun ((units, runs), policy, budget) ->
      let sim, hi = Engine.simulate_runs_interval ~units ~budget ~policy runs in
      let rec check b =
        b >= min hi (budget + 200)
        || (sim = reference_sim ~units ~budget:b ~policy runs
           || QCheck2.Test.fail_reportf "budget %d in [%d, %d) differs" b
                budget hi)
           && check (b + 1)
      in
      check budget)

(* The ladder code the batcher runs per (policy, block) group, on
   unsorted budget lists with duplicates, against per-budget passes. *)
let prop_ladder =
  QCheck2.Test.make ~count:400
    ~name:"interval ladder = per-budget passes (random streams)"
    QCheck2.Gen.(
      triple gen_run_stream
        (oneofl [ Engine.Lfu; Engine.Cost_aware ])
        (let* budgets = list_size (int_range 1 12) (int_range 1 200) in
         let* dups = list_size (int_range 0 4) (oneofl budgets) in
         shuffle_l (budgets @ dups)))
    (fun ((units, runs), policy, budgets) ->
      Engine.simulate_runs_ladder ~units ~policy ~budgets runs
      = List.map
          (fun budget -> Engine.simulate_runs ~units ~budget ~policy runs)
          budgets)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_pareto_sound;
    QCheck_alcotest.to_alcotest prop_pareto_dedup;
    QCheck_alcotest.to_alcotest prop_pareto_order_invariant;
    QCheck_alcotest.to_alcotest (prop_simulate_many_batches "swapram");
    QCheck_alcotest.to_alcotest (prop_simulate_many_batches "block");
    QCheck_alcotest.to_alcotest prop_heap_victim;
    QCheck_alcotest.to_alcotest prop_all_budgets;
    QCheck_alcotest.to_alcotest prop_mrc_is_lru;
    Alcotest.test_case "MRC does not bypass: 10/100/10 B at 50 B" `Quick
      mrc_no_bypass_test;
    Alcotest.test_case "all-budgets = per-budget on crc (both granularities)"
      `Quick table2_all_budgets_test;
    QCheck_alcotest.to_alcotest prop_map_chunked;
    Alcotest.test_case "serial = parallel = chunked frontiers" `Quick
      execution_invariance_test;
    Alcotest.test_case "warm memo store computes nothing" `Quick
      warm_store_test;
    Alcotest.test_case "stale trace fingerprint is an error" `Quick
      stale_trace_test;
    Alcotest.test_case "all-budgets = per-budget across stack compaction"
      `Quick stack_compaction_test;
    QCheck_alcotest.to_alcotest prop_interval;
    QCheck_alcotest.to_alcotest prop_ladder;
    QCheck_alcotest.to_alcotest prop_planner;
    Alcotest.test_case "partially warm store = cold serial run" `Quick
      partial_store_test;
  ]
