(* Time-series metrics, miss-ratio-curve and perf-gate tests.

   The windowing invariant mirrors the profiler's: windows close only
   on event boundaries, so per-window counters partition the run
   exactly — summed over all windows they equal the aggregate trace
   totals, and window energies sum to the whole-run energy report.

   The MRC invariant is the PR's acceptance bar: the reuse-distance
   tracker's predicted miss rate at the configured cache size must
   agree with the miss rate the SwapRAM runtime actually measured,
   because both count over the same reference stream (calls to
   cacheable functions) at the same granularity (whole functions). *)

module Trace = Msp430.Trace
module Energy = Msp430.Energy
module Toolchain = Experiments.Toolchain
module Metrics = Observe.Metrics
module Json = Observe.Json

let bench_of_source source =
  {
    Workloads.Bench_def.name = "prop";
    short = "PRP";
    source = (fun _ -> source);
    fits_data_in_sram = true;
  }

let small_cache = 512

let small_swapram =
  Toolchain.Swapram_cache
    {
      Swapram.Config.default_options with
      Swapram.Config.cache_size = small_cache;
      debug_checks = true;
    }

let small_block =
  Toolchain.Block_cache
    {
      Blockcache.Config.default_options with
      Blockcache.Config.cache_size = small_cache;
      debug_checks = true;
    }

(* Short windows so even small generated programs span several. *)
let observe =
  {
    Toolchain.default_observe with
    Toolchain.metrics_window = 4096;
    metrics_buckets = 16;
  }

let run_observed ~caching source =
  let config =
    { (Toolchain.default_config (bench_of_source source)) with Toolchain.caching }
  in
  match Toolchain.run ~observe config with
  | Toolchain.Completed r -> r
  | Toolchain.Crashed o ->
      failwith ("observed run did not halt: " ^ Msp430.Cpu.outcome_name o)
  | Toolchain.Did_not_fit msg -> failwith ("did not fit: " ^ msg)

let metrics_of (r : Toolchain.result) =
  match r.Toolchain.observation with
  | Some { Toolchain.o_metrics = Some m; _ } -> m
  | _ -> failwith "metrics sampler was not attached"

let check_window_conservation (r : Toolchain.result) =
  let m = metrics_of r in
  let stats = r.Toolchain.stats in
  let ws = Metrics.windows m in
  let fail fmt = QCheck2.Test.fail_reportf fmt in
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 ws in
  let fram_reads = stats.Trace.fram_ifetch + stats.Trace.fram_data_reads in
  if sum (fun w -> w.Metrics.w_unstalled) <> stats.Trace.unstalled_cycles then
    fail "unstalled: windows %d vs trace %d"
      (sum (fun w -> w.Metrics.w_unstalled))
      stats.Trace.unstalled_cycles
  else if sum (fun w -> w.Metrics.w_stall) <> stats.Trace.stall_cycles then
    fail "stall: windows %d vs trace %d"
      (sum (fun w -> w.Metrics.w_stall))
      stats.Trace.stall_cycles
  else if sum (fun w -> w.Metrics.w_instrs) <> stats.Trace.instructions then
    fail "instrs: windows %d vs trace %d"
      (sum (fun w -> w.Metrics.w_instrs))
      stats.Trace.instructions
  else if
    sum (fun w -> w.Metrics.w_fram_read_hits) <> stats.Trace.fram_read_hits
  then fail "fram read hits do not partition"
  else if
    sum (fun w -> w.Metrics.w_fram_read_misses)
    <> fram_reads - stats.Trace.fram_read_hits
  then fail "fram read misses do not partition"
  else if sum (fun w -> w.Metrics.w_fram_writes) <> stats.Trace.fram_writes
  then fail "fram writes do not partition"
  else if
    sum (fun w -> w.Metrics.w_sram_accesses) <> Trace.sram_accesses stats
  then fail "sram accesses do not partition"
  else if
    (* every window's occupancy reconstruction stays inside the
       configured cache *)
    not
      (List.for_all
         (fun w ->
           w.Metrics.w_occupancy >= 0 && w.Metrics.w_occupancy <= small_cache)
         ws)
  then fail "occupancy out of [0, cache_size]"
  else begin
    let windows_energy =
      List.fold_left
        (fun acc w -> acc +. (Metrics.window_energy m w).Metrics.e_total)
        0.0 ws
    in
    let whole =
      (Energy.evaluate Energy.point_24mhz stats).Energy.energy_nj
    in
    let rel = abs_float (windows_energy -. whole) /. Float.max 1.0 whole in
    if rel > 1e-9 then
      fail "energy: windows %.6f nJ vs whole-run %.6f nJ (rel %.2e)"
        windows_energy whole rel
    else true
  end

let prop_window_conservation_swapram =
  QCheck2.Test.make ~count:30
    ~name:"windows partition cycles/accesses/energy exactly (swapram)"
    ~print:(fun s -> s)
    Test_differential.gen_program
    (fun source ->
      check_window_conservation (run_observed ~caching:small_swapram source))

let prop_window_conservation_block =
  QCheck2.Test.make ~count:20
    ~name:"windows partition cycles/accesses/energy exactly (block cache)"
    ~print:(fun s -> s)
    Test_differential.gen_program
    (fun source ->
      check_window_conservation (run_observed ~caching:small_block source))

(* Per-window energy split components must sum to the window total
   (the model is linear). *)
let prop_energy_split =
  QCheck2.Test.make ~count:15
    ~name:"window energy split sums to window total" ~print:(fun s -> s)
    Test_differential.gen_program
    (fun source ->
      let r = run_observed ~caching:small_swapram source in
      let m = metrics_of r in
      List.for_all
        (fun w ->
          let e = Metrics.window_energy m w in
          let parts =
            e.Metrics.e_cpu +. e.Metrics.e_fram_read +. e.Metrics.e_fram_write
            +. e.Metrics.e_sram
          in
          abs_float (parts -. e.Metrics.e_total)
          <= 1e-9 *. Float.max 1.0 e.Metrics.e_total)
        (Metrics.windows m))

(* --- Run-coalesced line reuse = per-fetch reuse --------------------------- *)

(* In [Lines] mode the sampler hands a run of same-line fetches to the
   tracker as one [Reuse.access ~len]. Random fetch streams — straight
   runs of two-byte steps from a random home, so runs start and end
   mid-line — interleaved with block loads, flushes and window-closing
   cycles, and with the tracker and the MRC read mid-stream, must leave
   the tracker where feeding it fetch by fetch does. *)
type line_op =
  | Fetches of bool * int * int (* from FRAM?, first home, count *)
  | Block_load
  | Flush
  | Cycles of int
  | Read_tracker
  | Read_mrc

let gen_line_ops =
  QCheck2.Gen.(
    pair (oneofl [ 2; 16; 64 ])
      (list_size (int_range 0 200)
         (frequency
            [
              ( 10,
                map3
                  (fun fram home k -> Fetches (fram, home, k))
                  bool (int_range 0x4400 0x4600) (int_range 1 40) );
              (2, return Block_load);
              (1, return Flush);
              (3, map (fun k -> Cycles k) (int_range 1 100));
              (1, return Read_tracker);
              (1, return Read_mrc);
            ])))

let print_line_ops (n, ops) =
  Printf.sprintf "lines of %d: %s" n
    (String.concat "; "
       (List.map
          (function
            | Fetches (fram, home, k) ->
                Printf.sprintf "%s %d x%d" (if fram then "fram" else "sram") home k
            | Block_load -> "block_load"
            | Flush -> "flush"
            | Cycles k -> Printf.sprintf "cycles %d" k
            | Read_tracker -> "reuse_tracker"
            | Read_mrc -> "render_mrc")
          ops))

let prop_line_runs_equal_per_fetch =
  QCheck2.Test.make ~count:300 ~name:"run-coalesced line reuse = per-fetch reuse"
    ~print:print_line_ops gen_line_ops (fun (n, ops) ->
      let m =
        Metrics.create
          {
            Metrics.window_cycles = 64;
            buckets = 16;
            reuse = Metrics.Lines n;
            config_budget = 1024;
          }
          ~params:Energy.point_24mhz
          ~fram:(Msp430.Platform.fram_base,
                 Msp430.Platform.fram_base + Msp430.Platform.fram_size)
          ~sram:(Msp430.Platform.sram_base,
                 Msp430.Platform.sram_base + Msp430.Platform.sram_size)
          ~fid_size:(fun _ -> 0)
      in
      let s = Metrics.sink m in
      let reference = Observe.Reuse.create () in
      let budgets = Array.of_list Metrics.default_budgets in
      let same () =
        match Metrics.reuse_tracker m with
        | None -> QCheck2.Test.fail_report "reuse tracking disabled"
        | Some t ->
            let open Observe.Reuse in
            accesses t = accesses reference
            && cold_misses t = cold_misses reference
            && units t = units reference
            && footprint t = footprint reference
            && measured_misses t = measured_misses reference
            && at_budgets t budgets = at_budgets reference budgets
            || QCheck2.Test.fail_reportf
                 "tracker: %d accesses, %d cold, %d units; per fetch: %d, %d, %d"
                 (accesses t) (cold_misses t) (units t) (accesses reference)
                 (cold_misses reference) (units reference)
      in
      List.for_all
        (function
          | Fetches (fram, home, k) ->
              for i = 0 to k - 1 do
                let home = home + (2 * i) in
                if fram then s.Trace.fram_ifetch false home home
                else s.Trace.sram_ifetch Msp430.Platform.sram_base home;
                Observe.Reuse.access reference ~unit_id:(home / n) ~bytes:n
                  ~len:1
              done;
              true
          | Block_load ->
              s.Trace.block_load 0x4400;
              Observe.Reuse.note_measured_miss reference;
              true
          | Flush ->
              s.Trace.cache_flush ();
              true
          | Cycles k ->
              s.Trace.cycles k 0;
              true
          | Read_tracker -> same ()
          | Read_mrc ->
              (* The rendered header counts the pending run too. *)
              let expected =
                Printf.sprintf
                  "miss-ratio curve  (%d-byte line granularity, %d accesses, \
                   footprint %d B, %d units)"
                  n
                  (Observe.Reuse.accesses reference)
                  (Observe.Reuse.footprint reference)
                  (Observe.Reuse.units reference)
              in
              let mrc = Metrics.render_mrc m in
              List.hd (String.split_on_char '\n' mrc) = expected
              || QCheck2.Test.fail_reportf "render_mrc: %s" mrc)
        ops
      && same ())

(* --- Json parser round-trip -------------------------------------------- *)

(* Restricted to values the emitter renders canonically (no floats —
   their textual form is lossy by design). *)
let gen_json =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        let scalar =
          oneof
            [
              return Json.Null;
              map (fun b -> Json.Bool b) bool;
              map (fun i -> Json.Int i) (int_range (-1000000) 1000000);
              map (fun s -> Json.String s) (string_size (int_range 0 12));
            ]
        in
        if n <= 0 then scalar
        else
          frequency
            [
              (2, scalar);
              ( 1,
                map (fun xs -> Json.List xs)
                  (list_size (int_range 0 4) (self (n / 2))) );
              ( 1,
                map
                  (fun kvs -> Json.Obj kvs)
                  (list_size (int_range 0 4)
                     (pair (string_size (int_range 0 8)) (self (n / 2)))) );
            ]))

let prop_json_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"json parse inverts emission"
    ~print:(fun v -> Json.to_string v)
    gen_json
    (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok v' when v' = v -> true
      | Ok v' ->
          QCheck2.Test.fail_reportf "parsed %s" (Json.to_string v')
      | Error e -> QCheck2.Test.fail_reportf "parse error: %s" e)

let prop_json_roundtrip_pretty =
  QCheck2.Test.make ~count:200 ~name:"json parse inverts pretty emission"
    ~print:(fun v -> Json.to_string_pretty v)
    gen_json
    (fun v ->
      match Json.parse (Json.to_string_pretty v) with
      | Ok v' -> v' = v
      | Error e -> QCheck2.Test.fail_reportf "parse error: %s" e)

(* --- Deterministic checks: MRC agreement and the perf gate ------------- *)

let swapram_run bench =
  let config =
    {
      (Toolchain.default_config bench) with
      Toolchain.caching = Toolchain.Swapram_cache Swapram.Config.default_options;
    }
  in
  match Toolchain.run ~observe:Toolchain.metrics_observe config with
  | Toolchain.Completed r -> r
  | _ -> failwith (bench.Workloads.Bench_def.name ^ " did not complete")

let mrc_agreement_case bench =
  Alcotest.test_case
    (Printf.sprintf "MRC predicted ~ measured (%s)"
       bench.Workloads.Bench_def.name)
    `Slow
    (fun () ->
      let r = swapram_run bench in
      let m = metrics_of r in
      let reuse = Option.get (Metrics.reuse_tracker m) in
      let budget = (Metrics.spec m).Metrics.config_budget in
      Alcotest.(check bool) "budget configured" true (budget > 0);
      let predicted = Observe.Reuse.predicted_miss_rate reuse ~budget in
      let measured = Observe.Reuse.measured_miss_rate reuse in
      (* the runtime's own miss counter covers the same calls *)
      let rt_misses =
        match r.Toolchain.swapram_stats with
        | Some s -> s.Swapram.Runtime.misses
        | None -> -1
      in
      Alcotest.(check int)
        "measured misses = runtime misses" rt_misses
        (Observe.Reuse.measured_misses reuse);
      if abs_float (predicted -. measured) > 0.02 then
        Alcotest.failf "predicted %.4f vs measured %.4f (diff > 2 points)"
          predicted measured)

let mrc_cases =
  List.map mrc_agreement_case
    [
      Workloads.Suite.crc;
      Workloads.Suite.bitcount;
      Workloads.Suite.rc4;
      Workloads.Suite.stringsearch;
    ]

(* Perf gate: a report compared to itself is clean; an injected cycle
   regression beyond threshold trips it. *)
let tiny_sweeps =
  lazy (Experiments.Bench_report.sweeps ~benchmarks:[ Workloads.Suite.crc ] ())

let tiny_report =
  lazy (Experiments.Bench_report.compute (Lazy.force tiny_sweeps))

let scale_cycles factor json =
  let rec go = function
    | Json.Obj kvs ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               match (k, v) with
               | "cycles", Json.Int c ->
                   (k, Json.Int (int_of_float (float_of_int c *. factor)))
               | _ -> (k, go v))
             kvs)
    | Json.List xs -> Json.List (List.map go xs)
    | v -> v
  in
  go json

let gate_cases =
  [
    Alcotest.test_case "compare: identical reports pass" `Slow (fun () ->
        let report = Lazy.force tiny_report in
        let outcome =
          Experiments.Compare.compare_json ~old_report:report ~new_report:report
            ()
        in
        Alcotest.(check (list string)) "no errors" []
          outcome.Experiments.Compare.errors;
        Alcotest.(check int)
          "no regressions" 0
          (List.length (Experiments.Compare.regressions outcome));
        Alcotest.(check bool)
          "but metrics were compared" true
          (outcome.Experiments.Compare.findings <> []));
    Alcotest.test_case "compare: 15% cycle regression trips the gate" `Slow
      (fun () ->
        let report = Lazy.force tiny_report in
        let slower = scale_cycles 1.15 report in
        let outcome =
          Experiments.Compare.compare_json ~old_report:report ~new_report:slower
            ()
        in
        let regs = Experiments.Compare.regressions outcome in
        Alcotest.(check bool) "regressions found" true (regs <> []);
        Alcotest.(check bool)
          "cycles flagged" true
          (List.exists
             (fun f -> f.Experiments.Compare.f_metric = "cycles")
             regs);
        (* improvements never trip it *)
        let faster = scale_cycles 0.9 report in
        let outcome' =
          Experiments.Compare.compare_json ~old_report:report ~new_report:faster
            ()
        in
        Alcotest.(check int)
          "speedup is not a regression" 0
          (List.length (Experiments.Compare.regressions outcome')));
    Alcotest.test_case "compare: slim candidate gets a clear error" `Slow
      (fun () ->
        let report = Lazy.force tiny_report in
        let slim =
          Experiments.Bench_report.compute ~slim:true (Lazy.force tiny_sweeps)
        in
        (* full baseline, slim candidate: a specific error, not a
           schema mismatch or a missing-metric cascade *)
        let outcome =
          Experiments.Compare.compare_json ~old_report:report ~new_report:slim
            ()
        in
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i =
            i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool)
          "error mentions the slim rendering" true
          (List.exists
             (fun e -> contains e "slim")
             outcome.Experiments.Compare.errors);
        (* slim baseline, full candidate: the normal CI direction — clean *)
        let outcome' =
          Experiments.Compare.compare_json ~old_report:slim ~new_report:report
            ()
        in
        Alcotest.(check (list string))
          "slim baseline vs full report stays clean" []
          outcome'.Experiments.Compare.errors;
        Alcotest.(check int)
          "and has no regressions" 0
          (List.length (Experiments.Compare.regressions outcome')));
    Alcotest.test_case "compare: current-schema report carries metrics" `Slow
      (fun () ->
        let report = Lazy.force tiny_report in
        Alcotest.(check (option int))
          "schema version" (Some Experiments.Bench_report.schema_version)
          (Option.bind (Json.member "schema_version" report) Json.to_int);
        (* the swapram cell embeds a windows series and an MRC *)
        let cell =
          Option.get (Json.member "benchmarks" report) |> fun b ->
          Option.get (Json.to_list b) |> List.hd |> Json.member "systems"
          |> Option.get |> Json.member "swapram" |> Option.get
        in
        let metrics = Option.get (Json.member "metrics" cell) in
        Alcotest.(check bool)
          "windows non-empty" true
          (match Option.bind (Json.member "windows" metrics) Json.to_list with
          | Some (_ :: _) -> true
          | _ -> false);
        Alcotest.(check bool)
          "mrc has points" true
          (match
             Option.bind (Json.member "mrc" metrics) (Json.member "points")
             |> Fun.flip Option.bind Json.to_list
           with
          | Some (_ :: _) -> true
          | _ -> false));
  ]

(* A baseline without a "dse" object cannot pass the frontier gate:
   it is an error, never a silently skipped comparison. Appended after
   the properties so earlier test indices stay put. *)
let gate_case_dse_missing =
  Alcotest.test_case "compare: old report without dse is an error" `Slow
    (fun () ->
      let report = Lazy.force tiny_report in
      let no_dse =
        match report with
        | Json.Obj kvs -> Json.Obj (List.remove_assoc "dse" kvs)
        | j -> j
      in
      let outcome =
        Experiments.Compare.compare_json ~old_report:no_dse ~new_report:report
          ()
      in
      Alcotest.(check (list string))
        "one error" [ "dse object missing from old report" ]
        outcome.Experiments.Compare.errors)

let suite =
  mrc_cases @ gate_cases
  @ [
      QCheck_alcotest.to_alcotest prop_window_conservation_swapram;
      QCheck_alcotest.to_alcotest prop_window_conservation_block;
      QCheck_alcotest.to_alcotest prop_energy_split;
      QCheck_alcotest.to_alcotest prop_line_runs_equal_per_fetch;
      QCheck_alcotest.to_alcotest prop_json_roundtrip;
      QCheck_alcotest.to_alcotest prop_json_roundtrip_pretty;
      gate_case_dse_missing;
    ]
