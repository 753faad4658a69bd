(* Benchmark results: the per-workload record a run produces, its JSON
   forms, and the comparison of two result files.

   Floats are written with all 17 significant digits (Observe.Json
   rounds to 6, which is right for simulated reports but would make
   host timings read identically across runs). *)

module Json = Observe.Json

type metric = { name : string; unit : string; summary : Bound.summary; n : int }

type t = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  outputs : (string * Json.t) list;  (** deterministic outputs and digests *)
  errors : string list;
  latency : (string * Json.t) list;
      (** host milliseconds per timed operation, from {!latency} *)
}

(* An operation-latency distribution: quartiles, and the highest tail
   percentile with at least ten samples beyond it. *)
let latency op_ms =
  let n = List.length op_ms in
  if n < 2 then []
  else
    let q = Stats.quantiles op_ms in
    ("n", Json.Int n)
    :: List.map2 (fun k v -> (k, Json.Float v)) [ "p25"; "p50"; "p75" ] q
    @
    match Stats.tail_percentile op_ms with
    | Some (p, v) when p > 50. -> [ ("tail_percentile", Json.Float p); ("tail", Json.Float v) ]
    | _ -> []

let rec render buf = function
  | Json.Float f when Float.is_finite f -> Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | Json.List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          render buf v)
        l;
      Buffer.add_char buf ']'
  | Json.Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Json.to_string (Json.String k));
          Buffer.add_char buf ':';
          render buf v)
        kvs;
      Buffer.add_char buf '}'
  | v -> Buffer.add_string buf (Json.to_string v)

let to_string j =
  let buf = Buffer.create 1024 in
  render buf j;
  Buffer.contents buf

(* The one-line summary printed last: each metric's median
   with its unit. *)
let line r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               (m.name, Json.Obj [ ("value", Json.Float m.summary.Bound.median); ("unit", Json.String m.unit) ]))
             r.metrics) );
    ]

let to_json r =
  Json.Obj
    [
      ("workload", Json.String r.workload);
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Json.Obj
                   [
                     ("value", Json.Float m.summary.Bound.median);
                     ("unit", Json.String m.unit);
                     ("min", Json.Float m.summary.Bound.min);
                     ("max", Json.Float m.summary.Bound.max);
                     ("n", Json.Int m.n);
                   ] ))
             r.metrics) );
      ("outputs", Json.Obj r.outputs);
      ("errors", Json.List (List.map (fun e -> Json.String e) r.errors));
      ("op_ms", Json.Obj r.latency);
    ]

let ( let* ) = Option.bind

let of_json j =
  let* workload = Option.bind (Json.member "workload" j) Json.to_str in
  let* correct = match Json.member "correct" j with Some (Json.Bool b) -> Some b | _ -> None in
  let* attempted = Option.bind (Json.member "attempted" j) Json.to_int in
  let* failed = Option.bind (Json.member "failed" j) Json.to_int in
  let num k m = Option.bind (Json.member k m) Json.to_float in
  let* metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj kvs) ->
        List.fold_right
          (fun (name, m) acc ->
            let* acc = acc in
            let* median = num "value" m in
            let* unit = Option.bind (Json.member "unit" m) Json.to_str in
            let min = Option.value ~default:median (num "min" m) in
            let max = Option.value ~default:median (num "max" m) in
            let n = Option.value ~default:1 (Option.bind (Json.member "n" m) Json.to_int) in
            Some ({ name; unit; summary = { Bound.median; min; max }; n } :: acc))
          kvs (Some [])
    | _ -> None
  in
  let outputs = match Json.member "outputs" j with Some (Json.Obj kvs) -> kvs | _ -> [] in
  let errors =
    List.filter_map Json.to_str
      (Option.value ~default:[] (Option.bind (Json.member "errors" j) Json.to_list))
  in
  let latency = match Json.member "op_ms" j with Some (Json.Obj kvs) -> kvs | _ -> [] in
  Some { workload; correct; attempted; failed; metrics; outputs; errors; latency }

(* --- Result files --------------------------------------------------------- *)

(* The commit, read from the checkout's own .git without running git
   (which would search parent directories); "unknown" outside a git
   checkout. *)
let git_commit ~root =
  let read p = String.trim (In_channel.with_open_bin p In_channel.input_all) in
  let git = Filename.concat root ".git" in
  try
    let head = read (Filename.concat git "HEAD") in
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> (
        let loose = Filename.concat git r in
        if Sys.file_exists loose then read loose
        else
          let packed = String.split_on_char '\n' (read (Filename.concat git "packed-refs")) in
          match
            List.find_opt (fun l -> String.ends_with ~suffix:(" " ^ r) l) packed
          with
          | Some l -> List.hd (String.split_on_char ' ' l)
          | None -> "unknown")
    | _ -> head
  with Sys_error _ -> "unknown"

let stamp ~root ~seed ~seconds ~trace =
  [
    ("commit", Json.String (git_commit ~root));
    ("ocaml", Json.String Sys.ocaml_version);
    ("nproc", Json.Int (Experiments.Parallel.ncores ()));
    ("seed", Json.Int seed);
    ("seconds", Json.Float seconds);
    ("trace", Json.Bool trace);
  ]

let file_json ~stamp results =
  Json.Obj [ ("stamp", Json.Obj stamp); ("workloads", Json.List (List.map to_json results)) ]

let write path j = Out_channel.with_open_bin path (fun oc -> output_string oc (to_string j ^ "\n"))

let read path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok j -> (
      match Option.bind (Json.member "workloads" j) Json.to_list with
      | None -> Error (path ^ ": not a perf result file")
      | Some ws -> (
          match List.map of_json ws with
          | rs when List.for_all Option.is_some rs -> Ok (List.map Option.get rs)
          | _ -> Error (path ^ ": malformed workload result")))

(* --- Comparison ------------------------------------------------------------ *)

(* Absolute floors under the share bounds: below these a difference is
   timer resolution, not a regression. *)
let floors = [ ("setup_s", 0.05) ]

type row = {
  r_workload : string;
  r_metric : string;
  r_unit : string;
  r_old : float;
  r_new : float;
  r_bound : float option;
  r_verdict : Bound.verdict option;  (** [None]: no bound (per-layer) *)
}

let compare_results (registry : Registry.t) olds news =
  List.concat_map
    (fun nw ->
      match List.find_opt (fun o -> o.workload = nw.workload) olds with
      | None -> []
      | Some od ->
          List.filter_map
            (fun m ->
              match List.find_opt (fun o -> o.name = m.name) od.metrics with
              | None -> None
              | Some o ->
                  let reg = Registry.find registry m.name in
                  let verdict =
                    match reg with
                    | Some { Registry.bound = Some bound; better; _ } ->
                        let floor = Option.value ~default:0. (List.assoc_opt m.name floors) in
                        Some (Bound.evaluate ~better ~bound ~floor ~old:o.summary ~now:m.summary)
                    | _ -> None
                  in
                  Some
                    {
                      r_workload = nw.workload;
                      r_metric = m.name;
                      r_unit = m.unit;
                      r_old = o.summary.Bound.median;
                      r_new = m.summary.Bound.median;
                      r_bound = Option.bind reg (fun r -> r.Registry.bound);
                      r_verdict = verdict;
                    })
            nw.metrics)
    news

(* Deterministic outputs (digests, simulated ratios) that differ
   between the two files: a simulator-only change must leave none. *)
let output_drift olds news =
  List.concat_map
    (fun nw ->
      match List.find_opt (fun o -> o.workload = nw.workload) olds with
      | None -> []
      | Some od ->
          List.filter_map
            (fun (k, v) ->
              match List.assoc_opt k od.outputs with
              | Some v' when Json.to_string v' = Json.to_string v -> None
              | _ -> Some (nw.workload, k))
            nw.outputs)
    news
