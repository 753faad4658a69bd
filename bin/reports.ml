(* The commands that write or read reports: bench regenerates the
   paper's artifacts and the JSON report, compare gates two reports,
   and timeline renders a telemetry ledger. *)

open Common

(* The paper's artifacts, all at seed 1. *)
let bench_seed = 1

(* The sweeps the artifacts and reports of one bench run share: each
   is computed when first forced, then handed to every artifact that
   renders it. *)
type sweeps = {
  mhz24 : Experiments.Sweep.t Lazy.t;
  mhz8 : Experiments.Sweep.t Lazy.t;
  pgo : Experiments.Sweep.pgo_entry list Lazy.t;
  observed : Experiments.Bench_report.sweeps Lazy.t;
}

let sweeps ~jobs =
  let open Experiments in
  let seed = bench_seed and progress = Observe.Progress.auto stderr in
  let sweep frequency =
    lazy (Sweep.compute ~seed ~jobs ~progress ~frequency ())
  in
  let mhz24 = sweep Msp430.Platform.Mhz24 in
  {
    mhz24;
    mhz8 = sweep Msp430.Platform.Mhz8;
    pgo =
      lazy
        (Sweep.compute_pgo ~seed ~jobs ~progress
           ~frequency:Msp430.Platform.Mhz24 (Lazy.force mhz24));
    observed = lazy (Bench_report.sweeps ~seed ~jobs ~progress ());
  }

let bench_artifacts =
  let open Experiments in
  let seed = bench_seed in
  let at_both_frequencies render compute =
    print_string (render (compute Msp430.Platform.Mhz24));
    print_newline ();
    print_string (render (compute Msp430.Platform.Mhz8))
  in
  let at s = function
    | Msp430.Platform.Mhz24 -> Lazy.force s.mhz24
    | Msp430.Platform.Mhz8 -> Lazy.force s.mhz8
  in
  [
    ("fig1", fun _ -> print_string (Fig1.render (Fig1.compute ~seed ())));
    ("tab1", fun _ -> print_string (Tab1.render (Tab1.compute ~seed ())));
    ("fig7", fun _ -> print_string (Fig7.render (Fig7.compute ~seed ())));
    ( "tab2",
      fun s -> print_string (Tab2.render (Tab2.compute (Lazy.force s.mhz24))) );
    ( "fig8",
      fun s -> print_string (Fig8.render (Fig8.compute (Lazy.force s.mhz24))) );
    ( "fig9",
      fun s ->
        at_both_frequencies Fig9.render (fun frequency ->
            Fig9.compute ~frequency (at s frequency)) );
    ( "fig10",
      fun _ ->
        at_both_frequencies Fig10.render (fun frequency ->
            Fig10.compute ~seed ~frequency ()) );
    ("ablation", fun _ -> print_string Ablation.(render (compute ~seed ())));
    ( "tabpgo",
      fun s ->
        print_string
          (Tab_pgo.render
             (Tab_pgo.compute (Lazy.force s.mhz24) (Lazy.force s.pgo))) );
  ]

let bench_report ~jobs ~campaign sweeps path =
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
      Experiments.Bench_report.write ?campaign
        (Lazy.force sweeps.observed) path;
      Printf.printf "wrote %s (schema v%d%s)\n" path
        Experiments.Bench_report.schema_version
        (if campaign <> None then ", with campaign" else "");
      Ok ()

(* --jobs cannot change a simulated value. *)
let bench artifacts report baseline campaign jobs telemetry =
  match (campaign, report) with
  | Some _, None -> `Error (true, "--campaign requires --report")
  | _ ->
      let sweeps = sweeps ~jobs in
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
      List.iter
        (fun a -> step a (fun () -> List.assoc a bench_artifacts sweeps))
        artifacts;
      let* () =
        match report with
        | None -> Ok ()
        | Some path ->
            step "report" (fun () -> bench_report ~jobs ~campaign sweeps path)
      in
      Option.iter
        (fun path ->
          step "baseline" (fun () ->
              Experiments.Bench_report.write ~slim:true
                (Lazy.force sweeps.observed) path;
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
