(* Tests for the benchmark harness: its statistics, its regression
   verdicts, the registry, and a smoke run of every workload at a tiny
   size that must emit exactly the metrics BENCHMARK.json registers. *)

open Perf_lib

let root = "../.."
let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 3. (Stats.median [ 5.; 1.; 3. ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ])

(* Reference values from Python's statistics.quantiles(data, n=4). *)
let test_quantiles () =
  let check name expected xs =
    Alcotest.(check (list close)) name expected (Stats.quantiles xs)
  in
  check "1..10" [ 2.75; 5.5; 8.25 ] (List.init 10 (fun i -> float_of_int (i + 1)));
  check "two samples" [ 0.75; 1.5; 2.25 ] [ 2.; 1. ];
  check "five samples" [ 1.5; 3.; 4.5 ] [ 1.; 2.; 3.; 4.; 5. ]

let test_tail_percentile () =
  let samples n = List.init n (fun i -> float_of_int (i + 1)) in
  let check name expected n =
    Alcotest.(check (option (pair close close))) name expected (Stats.tail_percentile (samples n))
  in
  check "19 samples: not even a median with 10 beyond" None 19;
  check "20 samples: median" (Some (50., 10.)) 20;
  check "225 samples: p90, 22 beyond" (Some (90., 203.)) 225;
  check "1000 samples: p99, 10 beyond" (Some (99., 990.)) 1000;
  Alcotest.(check (pair close int)) "nearest rank" (90., 10) (Stats.percentile (samples 100) 90.)

let s median min max = { Bound.median; min; max }

let test_bounds () =
  let verdict =
    Alcotest.testable (fun f v -> Format.pp_print_string f (Bound.verdict_name v)) ( = )
  in
  let lower ?(floor = 0.) old now = Bound.evaluate ~better:Bound.Lower ~bound:0.1 ~floor ~old ~now in
  let steady = s 1.0 0.99 1.01 in
  Alcotest.check verdict "within bound" Bound.Unchanged (lower steady (s 1.05 1.04 1.06));
  Alcotest.check verdict "beyond bound" Bound.Worse (lower steady (s 1.2 1.19 1.21));
  Alcotest.check verdict "improved" Bound.Better (lower steady (s 0.8 0.79 0.81));
  Alcotest.check verdict "noisy old run" Bound.Unresolved (lower (s 1.0 0.8 1.2) (s 1.05 1.04 1.06));
  Alcotest.check verdict "noisy but every run better" Bound.Better (lower (s 1.0 0.9 1.3) (s 0.5 0.45 0.6));
  Alcotest.check verdict "worse even when noisy" Bound.Worse (lower (s 1.0 0.8 1.2) (s 1.5 1.4 1.6));
  (* a 20 ms set-up that grew by 30 ms is under the 50 ms floor *)
  Alcotest.check verdict "absolute floor" Bound.Unchanged (lower ~floor:0.05 (s 0.02 0.02 0.02) (s 0.05 0.05 0.05));
  Alcotest.check verdict "no floor" Bound.Worse (lower (s 0.02 0.02 0.02) (s 0.05 0.05 0.05));
  Alcotest.check verdict "higher is better" Bound.Worse
    (Bound.evaluate ~better:Bound.Higher ~bound:0.1 ~floor:0. ~old:steady ~now:(s 0.8 0.79 0.81))

let registry () =
  match Registry.load ~path:(Filename.concat root Registry.default_path) () with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_registry () =
  let r = registry () in
  Alcotest.(check (list string)) "workloads" Workload.names r.Registry.workloads;
  let names = List.map (fun m -> m.Registry.name) (r.Registry.end_to_end @ r.Registry.per_layer) in
  Alcotest.(check int) "names are unique" (List.length names) (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "setup_s is registered" true
    (List.exists (fun m -> m.Registry.name = "setup_s" && m.Registry.unit = "s") r.Registry.end_to_end);
  List.iter
    (fun m ->
      match m.Registry.bound with
      | Some b when b > 0. && b <= 0.25 -> ()
      | _ -> Alcotest.failf "%s: end-to-end bound must be in (0, 0.25]" m.Registry.name)
    r.Registry.end_to_end

(* Every workload, untraced and traced, at the tiny size: correct, and
   emitting each registered metric of its kind with the registered
   unit, and nothing else. *)
let test_smoke name () =
  let r = registry () in
  List.iter
    (fun trace ->
      match Runner.run ~registry:r ~size:Workload.tiny ~seed:1 ~seconds:0. ~trace ~root name with
      | Error e -> Alcotest.fail e
      | Ok res ->
          if not res.Report.correct then Alcotest.failf "%s: %s" name (String.concat "; " res.Report.errors);
          let registered = if trace then r.Registry.per_layer else r.Registry.end_to_end in
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "%s metrics (trace=%b)" name trace)
            (List.map (fun m -> (m.Registry.name, m.Registry.unit)) registered)
            (List.map (fun m -> (m.Report.name, m.Report.unit)) res.Report.metrics))
    [ false; true ]

let () =
  Alcotest.run "perf"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quantiles match Python" `Quick test_quantiles;
          Alcotest.test_case "tail percentile" `Quick test_tail_percentile;
        ] );
      ("bounds", [ Alcotest.test_case "verdicts and floors" `Quick test_bounds ]);
      ("registry", [ Alcotest.test_case "BENCHMARK.json" `Quick test_registry ]);
      ("smoke", List.map (fun w -> Alcotest.test_case w `Quick (test_smoke w)) Workload.names);
    ]
