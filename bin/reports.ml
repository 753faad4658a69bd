(* The commands that write or read reports: bench regenerates the
   paper's artifacts and the JSON report, compare gates two reports,
   and timeline renders a telemetry ledger. *)

open Common

(* The paper's artifacts, all at seed 1. *)
let bench_seed = 1

let bench_artifacts =
  let open Experiments in
  let seed = bench_seed in
  let at_both_frequencies render compute () =
    print_string (render (compute Msp430.Platform.Mhz24));
    print_newline ();
    print_string (render (compute Msp430.Platform.Mhz8))
  in
  [
    ("fig1", fun () -> print_string (Fig1.render (Fig1.compute ~seed ())));
    ("tab1", fun () -> print_string (Tab1.render (Tab1.compute ~seed ())));
    ("fig7", fun () -> print_string (Fig7.render (Fig7.compute ~seed ())));
    ("tab2", fun () -> print_string (Tab2.render (Tab2.compute ~seed ())));
    ("fig8", fun () -> print_string (Fig8.render (Fig8.compute ~seed ())));
    ( "fig9",
      at_both_frequencies Fig9.render (fun frequency ->
          Fig9.compute ~seed ~frequency ()) );
    ( "fig10",
      at_both_frequencies Fig10.render (fun frequency ->
          Fig10.compute ~seed ~frequency ()) );
    ("ablation", fun () -> print_string Ablation.(render (compute ~seed ())));
    ("tabpgo", fun () -> print_string Tab_pgo.(render (compute ~seed ())));
  ]

let bench_report ~jobs ~campaign path =
  let campaign =
    match campaign with
    | None -> Ok None
    | Some p_trials ->
        Faultinject.Campaign.(
          run ~jobs ~progress:(Observe.Progress.auto stderr)
            { default_plan with p_trials }
          |> Result.map (fun o -> Some (to_json o)))
  in
  match campaign with
  | Error e -> Error ("campaign failed: " ^ e)
  | Ok campaign ->
      Experiments.Bench_report.write ~seed:bench_seed ?campaign path;
      let ms = Experiments.Sweep.memo_stats () in
      Printf.printf "sweep memo   : %d hit, %d computed\n" ms.hits ms.misses;
      Printf.printf "wrote %s (schema v%d%s)\n" path
        Experiments.Bench_report.schema_version
        (if campaign <> None then ", with campaign" else "");
      Ok ()

(* --jobs and --engine reach every artifact through the Sweep and
   Toolchain defaults; neither can change a simulated value. *)
let bench artifacts report baseline campaign jobs engine telemetry =
  match (campaign, report) with
  | Some _, None -> `Error (true, "--campaign requires --report")
  | _ ->
      Experiments.Sweep.set_default_jobs jobs;
      Toolchain.set_default_engine engine;
      Experiments.Sweep.set_default_progress (Observe.Progress.auto stderr);
      let artifacts =
        if artifacts = [] && report = None && baseline = None then
          List.map fst bench_artifacts
        else artifacts
      in
      with_telemetry ~command:"bench" telemetry
        ~fields:Observe.Json.[ ("seed", Int bench_seed); ("jobs", Int jobs) ]
      @@ fun () ->
      let step name run =
        let r = Observe.Telemetry.with_span ~cat:"bench" name run in
        print_newline ();
        r
      in
      List.iter (fun a -> step a (List.assoc a bench_artifacts)) artifacts;
      let* () =
        match report with
        | None -> Ok ()
        | Some path ->
            step "report" (fun () -> bench_report ~jobs ~campaign path)
      in
      Option.iter
        (fun path ->
          step "baseline" (fun () ->
              Experiments.Bench_report.write ~seed:bench_seed ~slim:true path;
              Printf.printf "wrote %s (schema v%d, slim)\n" path
                Experiments.Bench_report.schema_version))
        baseline;
      `Ok ()

(* The perf-regression gate: nonzero exit on any regression beyond the
   per-metric thresholds (or a structural mismatch). *)
let compare old_path new_path threshold =
  let thresholds =
    match threshold with
    | None -> Experiments.Compare.default_thresholds
    | Some t ->
        List.map (fun (m, _) -> (m, t)) Experiments.Compare.default_thresholds
  in
  let* outcome =
    Experiments.Compare.compare_files ~thresholds old_path new_path
  in
  print_string (Experiments.Compare.render outcome);
  match (Experiments.Compare.regressions outcome, outcome.errors) with
  | [], [] -> `Ok ()
  | regs, errors ->
      `Error
        ( false,
          Printf.sprintf "perf gate failed: %d regression(s), %d error(s)"
            (List.length regs) (List.length errors) )

(* Render a telemetry run ledger as a Chrome trace-event file, a
   utilization summary, or CSV. *)
let timeline ledger chrome csv summary =
  let* records = Observe.Telemetry.read_file ledger in
  let export what render path =
    write_file path (render records);
    Printf.printf "wrote %s to %s\n" what path
  in
  Option.iter (export "Chrome timeline" Observe.Telemetry.chrome) chrome;
  Option.iter (export "CSV table" Observe.Telemetry.csv) csv;
  if summary || (chrome = None && csv = None) then
    print_string (Observe.Telemetry.summary records);
  `Ok ()
