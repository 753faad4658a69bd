(* The commands that fan one question out over many runs: faultinject
   (schedules x one configuration), campaign (Monte-Carlo trials over
   a plan) and dse (recorded traces x a design grid). *)

open Common
module Campaign = Faultinject.Campaign
module Dse = Experiments.Dse

let progress quiet =
  if quiet then Observe.Progress.null else Observe.Progress.auto stderr

let faultinject config jobs mode periods crash_seed max_reboots
    watchdog_cycles telemetry =
  let schedules =
    match mode with
    | "sweep" -> List.map (fun p -> Faultinject.Schedule.Periodic p) periods
    | "periodic" -> [ Faultinject.Schedule.Periodic (List.hd periods) ]
    | "random" ->
        [
          Faultinject.Schedule.Random
            { seed = crash_seed; min_gap = 30_000; max_gap = 300_000 };
        ]
    | _ (* adversarial *) -> [ Faultinject.Schedule.adversarial ]
  in
  with_telemetry ~command:"faultinject" telemetry
    ~fields:
      (config_fields config
      @ Observe.Json.[ ("mode", String mode); ("jobs", Int jobs) ])
  @@ fun () ->
  match
    Faultinject.Injector.sweep ~max_reboots
      ?watchdog_cycles:
        (if watchdog_cycles <= 0 then None else Some watchdog_cycles)
      ~jobs config schedules
  with
  | Error msg -> `Error (false, "golden run failed: " ^ msg)
  | Ok reports -> (
      print_endline (Faultinject.Injector.table reports);
      match
        List.filter (fun r -> not (Faultinject.Injector.passed r)) reports
      with
      | [] -> `Ok ()
      | failures ->
          `Error
            ( false,
              Printf.sprintf "%d of %d injected runs failed the oracle"
                (List.length failures) (List.length reports) ))

let report_json key value =
  Observe.Json.(
    Obj
      [
        ("schema_version", Int Experiments.Bench_report.schema_version);
        (key, value);
      ])

let campaign plan resume jobs report quiet telemetry =
  with_telemetry ~command:"campaign" telemetry
    ~fields:
      Observe.Json.
        [
          ("seed", Int plan.Campaign.p_seed);
          ("trials", Int plan.p_trials);
          ("jobs", Int jobs);
          ("plan_fingerprint", String (Campaign.fingerprint plan));
        ]
  @@ fun () ->
  let* outcome =
    Campaign.run ~jobs ~progress:(progress quiet) ?progress_file:resume plan
  in
  print_string (Campaign.table outcome);
  Option.iter
    (fun path ->
      write_file path
        (Observe.Json.to_string_pretty
           (report_json "campaign" (Campaign.to_json outcome)));
      Printf.printf "wrote %s\n" path)
    report;
  `Ok ()

let dse benchmarks systems grid seed jobs trace_dir resume report frontier
    quiet telemetry =
  let* () = Dse.validate_grid grid in
  let progress = progress quiet in
  with_telemetry ~command:"dse" telemetry
    ~fields:
      Observe.Json.
        [
          ("seed", Int seed);
          ("jobs", Int jobs);
          ("budgets", Int (List.length grid.Dse.g_budgets));
        ]
  @@ fun () ->
  Dse.with_trace_dir ?dir:trace_dir @@ fun dir ->
  let* workloads =
    Dse.record_workloads ~seed ~benchmarks ~systems ~jobs ~progress ~dir ()
  in
  let* outcome = Dse.run ~jobs ~progress ?store:resume grid workloads in
  Printf.printf "workloads : %d\n" (List.length outcome.d_workloads);
  List.iter
    (fun (f : Dse.frontier) ->
      Printf.printf "  %-24s %6d points, %4d on frontier\n" f.f_workload
        f.f_points
        (List.length f.f_frontier))
    outcome.d_frontiers;
  Printf.printf
    "points    : %d (%d sims: %d computed, %d cached, %d collapsed)\n"
    outcome.d_points_total outcome.d_sims_total outcome.d_sims_computed
    outcome.d_sims_cached outcome.d_sims_collapsed;
  Printf.printf "global    : %d frontier points\n"
    (List.length outcome.d_global_frontier);
  let write path json =
    write_file path (Observe.Json.to_string_pretty json ^ "\n");
    Printf.printf "wrote %s\n" path
  in
  Option.iter
    (fun path -> write path (report_json "dse" (Dse.json grid outcome)))
    report;
  Option.iter
    (fun path -> write path (Dse.json ~slim:true grid outcome))
    frontier;
  `Ok ()
