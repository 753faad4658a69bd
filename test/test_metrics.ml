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
module Compare = Experiments.Compare

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
  { Toolchain.metrics_window = 4096; metrics_buckets = 16 }

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

(* The exact gate: a report compared to itself has no difference, and
   any edit is one, named by its JSON path. *)
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

(* [json] with the value at [keys] (object keys, or list indices as
   strings) replaced by [f] of it; [f] returning [None] removes it. *)
let rec edit_at keys f json =
  match (keys, json) with
  | [], v -> f v
  | k :: rest, Json.Obj kvs ->
      Some
        (Json.Obj
           (List.filter_map
              (fun (k', v) ->
                if k' = k then Option.map (fun v -> (k', v)) (edit_at rest f v)
                else Some (k', v))
              kvs))
  | k :: rest, Json.List xs ->
      let i = int_of_string k in
      Some
        (Json.List
           (List.concat
              (List.mapi
                 (fun j v ->
                   if j = i then Option.to_list (edit_at rest f v) else [ v ])
                 xs)))
  | _ -> Alcotest.failf "no %s in the report" (String.concat "." keys)

let edited keys f report = Option.get (edit_at keys f report)

let bump = function
  | Json.Int i -> Some (Json.Int (i + 1))
  | v -> Alcotest.failf "not an int: %s" (Json.to_string v)

let paths differences =
  List.map (fun d -> d.Compare.path) differences

let gate_cases =
  [
    Alcotest.test_case "compare: identical reports pass" `Slow (fun () ->
        let report = Lazy.force tiny_report in
        Alcotest.(check (list string))
          "no differences" []
          (paths (Compare.diff report report));
        Alcotest.(check string)
          "rendered" "0 differences\n"
          (Compare.render (Compare.diff report report));
        (* one changed scalar is flagged *)
        let bumped = edited [ "schema_version" ] bump report in
        Alcotest.(check (list string))
          "a bumped schema version is one difference" [ "schema_version" ]
          (paths (Compare.diff report bumped));
        (* so is a reordering, at the reordered object *)
        let reordered =
          edited
            [ "benchmarks"; "0"; "systems" ]
            (function
              | Json.Obj kvs -> Some (Json.Obj (List.rev kvs)) | v -> Some v)
            report
        in
        Alcotest.(check (list string))
          "a reordering is one difference" [ "benchmarks[crc].systems" ]
          (paths (Compare.diff report reordered)));
    Alcotest.test_case "compare: 15% cycle regression trips the gate" `Slow
      (fun () ->
        let report = Lazy.force tiny_report in
        let check_scaled factor =
          let differences =
            Compare.diff report (scale_cycles factor report)
          in
          Alcotest.(check bool) "differences found" true (differences <> []);
          Alcotest.(check bool)
            "every one is a cycles leaf" true
            (List.for_all
               (String.ends_with ~suffix:".cycles")
               (paths differences));
          match
            List.find_opt
              (fun d ->
                d.Compare.path
                = "benchmarks[crc].systems.swapram.cycles")
              differences
          with
          | None -> Alcotest.fail "swapram cycles not flagged"
          | Some d ->
              let delta = Option.get d.Compare.delta in
              if abs_float (delta -. (factor -. 1.0)) > 1e-6 then
                Alcotest.failf "delta %f, expected %f" delta (factor -. 1.0)
        in
        check_scaled 1.15;
        (* a 10% cycle decrease is flagged too *)
        check_scaled 0.9);
    Alcotest.test_case "compare: slim candidate gets a clear error" `Slow
      (fun () ->
        let report = Lazy.force tiny_report in
        let slim =
          Experiments.Bench_report.compute ~slim:true (Lazy.force tiny_sweeps)
        in
        (* slim and full differ exactly in the subtrees the slim
           rendering drops, each named once at its root, whichever
           side is the baseline *)
        List.iter
          (fun (what, old_report, new_report) ->
            let ps = paths (Compare.diff old_report new_report) in
            Alcotest.(check bool)
              (what ^ ": the swapram metrics are named") true
              (List.mem "benchmarks[crc].systems.swapram.metrics" ps);
            Alcotest.(check bool)
              (what ^ ": the replay object is named")
              true (List.mem "replay" ps);
            List.iter
              (fun p ->
                if
                  not
                    (p = "replay"
                    || String.ends_with ~suffix:".metrics" p
                    || String.ends_with ~suffix:".top_functions" p)
                then Alcotest.failf "%s: unexpected difference at %s" what p)
              ps)
          [ ("full vs slim", report, slim); ("slim vs full", slim, report) ]);
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

(* A baseline without a "dse" object cannot pass the gate: it is a
   difference, never a silently skipped comparison. Appended after
   the properties so earlier test indices stay put. *)
let gate_case_dse_missing =
  Alcotest.test_case "compare: old report without dse is an error" `Slow
    (fun () ->
      let report = Lazy.force tiny_report in
      let no_dse = edited [ "dse" ] (fun _ -> None) report in
      match Compare.diff no_dse report with
      | [ d ] ->
          Alcotest.(check string) "path" "dse" d.Compare.path;
          Alcotest.(check bool)
            "only in the new report" true
            (d.Compare.old_value = None)
      | ds -> Alcotest.failf "%d differences" (List.length ds))

(* One edit, one difference, named by [expected], whose rendering
   carries that path. *)
let check_one_difference ~expected report edited_report =
  let differences = Compare.diff report edited_report in
  Alcotest.(check (list string)) "paths" [ expected ] (paths differences);
  let rendered = Compare.render differences in
  Alcotest.(check bool)
    "rendered with its path" true
    (String.starts_with ~prefix:("1 difference\n" ^ expected ^ ": ") rendered)

let gate_cases_by_path =
  [
    Alcotest.test_case "compare: a changed cost names its path" `Slow
      (fun () ->
        let report = Lazy.force tiny_report in
        check_one_difference
          ~expected:"benchmarks[crc].systems.swapram.cycles" report
          (edited
             [ "benchmarks"; "0"; "systems"; "swapram"; "cycles" ]
             bump report));
    Alcotest.test_case "compare: a changed frontier point names its path" `Slow
      (fun () ->
        let report = Lazy.force tiny_report in
        check_one_difference
          ~expected:"dse.workloads[crc/block].frontier[0].cycles" report
          (edited
             [ "dse"; "workloads"; "1"; "frontier"; "0"; "cycles" ]
             bump report));
    Alcotest.test_case "compare: a missing cell names its path" `Slow
      (fun () ->
        let report = Lazy.force tiny_report in
        let missing =
          edited
            [ "benchmarks"; "0"; "systems"; "block" ]
            (fun _ -> None)
            report
        in
        check_one_difference ~expected:"benchmarks[crc].systems.block" report
          missing;
        match Compare.diff report missing with
        | [ d ] ->
            Alcotest.(check bool)
              "only in the old report" true
              (d.Compare.new_value = None)
        | _ -> ());
  ]

(* Every single-leaf edit of a report, with the path the differ must
   name: a number bumped by one, a string altered, or a list element
   dropped. A list whose elements all have distinct "name" or
   "workload" strings is stepped by name, any other by index. The
   string that names such an element is its identity, not a leaf:
   altering it drops one element and adds another. Dropping one of a
   run of equal elements is dropping the last of them. *)
let leaf_edits report =
  let numbers = ref [] and strings = ref [] and drops = ref [] in
  let add edits path edit = edits := (path, edit) :: !edits in
  let field path k = if path = "" then k else path ^ "." ^ k in
  let name x =
    match Option.bind (Json.member "name" x) Json.to_str with
    | Some n -> Some ("name", n)
    | None ->
        Option.map (fun n -> ("workload", n))
          (Option.bind (Json.member "workload" x) Json.to_str)
  in
  let rec go ~identity path rebuild = function
    | Json.Int i -> add numbers path (fun () -> rebuild (Json.Int (i + 1)))
    | Json.Float f when Float.is_finite f ->
        add numbers path (fun () -> rebuild (Json.Float (f +. 1.0)))
    | Json.String s ->
        add strings path (fun () -> rebuild (Json.String (s ^ "~")))
    | Json.Obj kvs ->
        List.iteri
          (fun i (k, v) ->
            if Some k <> identity then
              go ~identity:None (field path k)
                (fun v' ->
                  rebuild
                    (Json.Obj
                       (List.mapi
                          (fun j kv -> if j = i then (k, v') else kv)
                          kvs)))
                v)
          kvs
    | Json.List xs ->
        let names = List.map name xs in
        let named =
          List.for_all Option.is_some names
          && List.compare_lengths
               (List.sort_uniq compare (List.map (Option.map snd) names))
               xs
             = 0
        in
        let arr = Array.of_list xs in
        let step i =
          if named then path ^ "[" ^ snd (Option.get (List.nth names i)) ^ "]"
          else path ^ "[" ^ string_of_int i ^ "]"
        in
        Array.iteri
          (fun i x ->
            let identity =
              if named then Option.map fst (List.nth names i) else None
            in
            go ~identity (step i)
              (fun x' ->
                rebuild
                  (Json.List
                     (List.mapi (fun j y -> if j = i then x' else y) xs)))
              x;
            let last = ref i in
            while
              (not named) && !last + 1 < Array.length arr
              && compare arr.(!last + 1) x = 0
            do
              incr last
            done;
            add drops (step !last) (fun () ->
                rebuild (Json.List (List.filteri (fun j _ -> j <> i) xs))))
          arr
    | Json.Null | Json.Bool _ | Json.Float _ -> ()
  in
  go ~identity:None "" Fun.id report;
  List.map
    (fun edits -> Array.of_list (List.rev !edits))
    [ numbers; strings; drops ]

let tiny_edits = lazy (leaf_edits (Lazy.force tiny_report))

let prop_one_leaf_one_difference =
  QCheck2.Test.make ~count:300
    ~name:"compare: one edited leaf is one difference at its path"
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 2) (int_bound 1_000_000))
    (fun (kind, k) ->
      let report = Lazy.force tiny_report in
      let edits = List.nth (Lazy.force tiny_edits) kind in
      let path, edit = edits.(k mod Array.length edits) in
      match paths (Compare.diff report (edit ())) with
      | [ p ] when p = path -> true
      | ps ->
          QCheck2.Test.fail_reportf "edit at %s gave [%s]" path
            (String.concat "; " ps))

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
  @ gate_cases_by_path
  @ [
      QCheck_alcotest.to_alcotest ~speed_level:`Slow
        prop_one_leaf_one_difference;
    ]
