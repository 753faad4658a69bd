module Json = Observe.Json

(* Perf-regression gate over two bench reports of the same schema
   version, slim or full. Every (benchmark, system) cell present in the old report is
   compared metric-by-metric against the new one under per-metric
   relative thresholds; a regression is a relative increase beyond
   the metric's threshold. The simulator is deterministic, so
   thresholds guard against real code-path changes, not noise — they
   leave room for intentional small costs (e.g. added bookkeeping)
   while catching anything structural. *)

(* (metric, relative threshold). All compared metrics are
   smaller-is-better. *)
let default_thresholds =
  [
    ("cycles", 0.05);
    ("unstalled_cycles", 0.05);
    ("instructions", 0.05);
    ("energy_nj", 0.05);
    ("fram_accesses", 0.08);
    ("sram_accesses", 0.08);
    ("code_bytes", 0.10);
  ]

type finding = {
  f_bench : string;
  f_system : string;
  f_metric : string;
  f_old : float;
  f_new : float;
  f_delta : float; (* relative change, (new - old) / old *)
  f_threshold : float;
  f_regressed : bool;
}

type outcome = { findings : finding list; errors : string list }

let regressions o = List.filter (fun f -> f.f_regressed) o.findings

let get_num json key =
  Option.bind (Json.member key json) Json.to_float

let get_str json key = Option.bind (Json.member key json) Json.to_str

let bench_assoc report =
  match Option.bind (Json.member "benchmarks" report) Json.to_list with
  | None -> Error "no \"benchmarks\" array"
  | Some benches ->
      Ok
        (List.filter_map
           (fun b ->
             match get_str b "name" with
             | Some name -> Some (name, b)
             | None -> None)
           benches)

let systems_of bench =
  match Json.member "systems" bench with
  | Some (Json.Obj kvs) -> kvs
  | _ -> []

(* A cell "has windows" when its metrics object carries a non-empty
   per-window series; slim reports render metrics as null. *)
let has_windows cell =
  match Json.member "metrics" cell with
  | Some (Json.Obj _ as m) -> (
      match Json.member "windows" m with
      | Some (Json.List (_ :: _)) -> true
      | _ -> false)
  | _ -> false

let compare_cell ~thresholds ~bench ~system old_cell new_cell
    (findings, errors) =
  let status j = Option.value ~default:"?" (get_str j "status") in
  let old_status = status old_cell and new_status = status new_cell in
  if old_status <> new_status then
    ( findings,
      Printf.sprintf "%s/%s: status changed %s -> %s" bench system old_status
        new_status
      :: errors )
  else if old_status <> "completed" then (findings, errors)
  else
    let errors =
      (* Gate scalars exist in slim reports too; only complain when
         the baseline carries the per-window series and the candidate
         lost it — that means someone passed a slim rendering where a
         full report was expected. *)
      if has_windows old_cell && not (has_windows new_cell) then
        Printf.sprintf
          "%s/%s: new report is slim — it lacks the per-window metrics \
           series the baseline carries; regenerate a full report (dune exec \
           bin/swapram_cli.exe -- bench --report) or compare against a slim \
           baseline"
          bench system
        :: errors
      else errors
    in
    List.fold_left
      (fun (findings, errors) (metric, threshold) ->
        match (get_num old_cell metric, get_num new_cell metric) with
        | Some o, Some n ->
            let delta =
              if o = 0.0 then if n = 0.0 then 0.0 else infinity
              else (n -. o) /. o
            in
            ( {
                f_bench = bench;
                f_system = system;
                f_metric = metric;
                f_old = o;
                f_new = n;
                f_delta = delta;
                f_threshold = threshold;
                f_regressed = delta > threshold;
              }
              :: findings,
              errors )
        | None, _ ->
            (* Absent in the old report (e.g. hand-trimmed baseline):
               nothing to gate on. *)
            (findings, errors)
        | Some _, None ->
            ( findings,
              Printf.sprintf "%s/%s: metric %s missing from new report" bench
                system metric
              :: errors ))
      (findings, errors) thresholds

(* Frontier-drift gate over the "dse" objects. Frontiers are exact
   and deterministic — a pure function of (seed, benchmarks, grid) —
   so unlike the threshold-gated scalar metrics they are compared for
   equality: any drift means the cache model, the objective model or
   the Pareto computation changed, which must be an intentional,
   baseline-refreshing change. *)
let dse_errors ~old_report ~new_report =
  match (Json.member "dse" old_report, Json.member "dse" new_report) with
  | None, _ -> [ "dse object missing from old report" ]
  | Some _, None -> [ "dse object missing from new report" ]
  | Some old_dse, Some new_dse ->
      let member_drift key =
        if Json.member key old_dse = Json.member key new_dse then []
        else [ Printf.sprintf "dse: %s drifted from the baseline" key ]
      in
      let frontiers dse =
        match Option.bind (Json.member "workloads" dse) Json.to_list with
        | None -> []
        | Some ws ->
            List.filter_map
              (fun w ->
                match get_str w "workload" with
                | Some name -> Some (name, w)
                | None -> None)
              ws
      in
      let old_ws = frontiers old_dse and new_ws = frontiers new_dse in
      let frontier_errs =
        List.concat_map
          (fun (name, old_w) ->
            match List.assoc_opt name new_ws with
            | None ->
                [ Printf.sprintf "dse: workload %s missing from new report" name ]
            | Some new_w ->
                if old_w = new_w then []
                else [ Printf.sprintf "dse: frontier drift for %s" name ])
          old_ws
      in
      member_drift "grid" @ member_drift "points_total"
      @ member_drift "sims_total" @ frontier_errs
      @ member_drift "global_frontier"

let compare_json ?(thresholds = default_thresholds) ~old_report ~new_report ()
    =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (match
     ( Option.bind (Json.member "schema_version" old_report) Json.to_int,
       Option.bind (Json.member "schema_version" new_report) Json.to_int )
   with
  | Some o, Some n when o <> n ->
      err "schema_version changed %d -> %d: refresh bench/baseline.json" o n
  | None, _ -> err "old report has no schema_version"
  | _, None -> err "new report has no schema_version"
  | Some _, Some _ -> ());
  errors := List.rev_append (dse_errors ~old_report ~new_report) !errors;
  match (bench_assoc old_report, bench_assoc new_report) with
  | Error e, _ -> { findings = []; errors = [ "old report: " ^ e ] }
  | _, Error e -> { findings = []; errors = [ "new report: " ^ e ] }
  | Ok old_benches, Ok new_benches ->
      let findings, errs =
        List.fold_left
          (fun acc (bench, old_b) ->
            match List.assoc_opt bench new_benches with
            | None ->
                let findings, errors = acc in
                ( findings,
                  Printf.sprintf "benchmark %s missing from new report" bench
                  :: errors )
            | Some new_b ->
                List.fold_left
                  (fun acc (system, old_cell) ->
                    match List.assoc_opt system (systems_of new_b) with
                    | None ->
                        let findings, errors = acc in
                        ( findings,
                          Printf.sprintf "%s/%s missing from new report" bench
                            system
                          :: errors )
                    | Some new_cell ->
                        compare_cell ~thresholds ~bench ~system old_cell
                          new_cell acc)
                  acc (systems_of old_b))
          ([], !errors) old_benches
      in
      { findings = List.rev findings; errors = List.rev errs }

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Ok s

let compare_files ?thresholds old_path new_path =
  match (read_file old_path, read_file new_path) with
  | Error e, _ | _, Error e -> Error e
  | Ok old_s, Ok new_s -> (
      match (Json.parse old_s, Json.parse new_s) with
      | Error e, _ -> Error (old_path ^ ": " ^ e)
      | _, Error e -> Error (new_path ^ ": " ^ e)
      | Ok old_report, Ok new_report ->
          Ok (compare_json ?thresholds ~old_report ~new_report ()))

let render o =
  let buf = Buffer.create 1024 in
  let regs = regressions o in
  Buffer.add_string buf
    (Printf.sprintf "compared %d metrics: %d regression%s, %d error%s\n"
       (List.length o.findings) (List.length regs)
       (if List.length regs = 1 then "" else "s")
       (List.length o.errors)
       (if List.length o.errors = 1 then "" else "s"));
  List.iter (fun e -> Buffer.add_string buf ("error: " ^ e ^ "\n")) o.errors;
  let interesting =
    List.filter (fun f -> f.f_regressed || abs_float f.f_delta > 0.005) o.findings
  in
  if interesting <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "%-14s %-9s %-17s %14s %14s %8s %8s\n" "benchmark"
         "system" "metric" "old" "new" "delta" "limit");
    List.iter
      (fun f ->
        Buffer.add_string buf
          (Printf.sprintf "%-14s %-9s %-17s %14.0f %14.0f %+7.2f%% %7.0f%%%s\n"
             f.f_bench f.f_system f.f_metric f.f_old f.f_new
             (100.0 *. f.f_delta)
             (100.0 *. f.f_threshold)
             (if f.f_regressed then "  REGRESSED" else "")))
      interesting
  end;
  Buffer.contents buf
