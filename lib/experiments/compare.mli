(** Perf-regression gate: compare two bench reports
    ([bench/report.json], same schema version, slim or full)
    metric-by-metric under per-metric relative thresholds, and their
    "dse" frontiers for equality. Drives [swapram_cli compare]
    and the CI perf gate against the committed [bench/baseline.json]. *)

val default_thresholds : (string * float) list
(** [(metric, max relative increase)]. Cycles / instructions / energy
    5%, memory-access counts 8%, code size 10%. All compared metrics
    are smaller-is-better; the simulator is deterministic, so the
    slack covers intentional small costs, not noise. *)

type finding = {
  f_bench : string;
  f_system : string;  (** "baseline" / "swapram" / "block" *)
  f_metric : string;
  f_old : float;
  f_new : float;
  f_delta : float;  (** relative change, [(new - old) / old] *)
  f_threshold : float;
  f_regressed : bool;
}

type outcome = {
  findings : finding list;  (** every compared metric *)
  errors : string list;
      (** structural problems that themselves fail the gate: schema
          mismatch, missing benchmark/system/metric/dse object, status
          change, dse frontier drift *)
}

val compare_json :
  ?thresholds:(string * float) list ->
  old_report:Observe.Json.t ->
  new_report:Observe.Json.t ->
  unit ->
  outcome

val compare_files :
  ?thresholds:(string * float) list ->
  string ->
  string ->
  (outcome, string) result
(** [compare_files old_path new_path]; [Error] is an I/O or JSON
    parse failure. *)

val regressions : outcome -> finding list

val render : outcome -> string
(** Human-readable summary: counts, errors, and a table of regressed
    or notably-changed (>0.5%) metrics. *)
