(* Runs one workload in the current process.

   Set-up runs several times, so work moved into set-up shows. The
   heap is then compacted and the timed phase repeats the workload's
   job until [seconds] have passed. Timings are summarized by the median
   of their faster half ({!Stats.fast_half_median}), per operation where
   a repetition has several: on a shared host a busy neighbour can slow
   whole seconds of a run by tens of percent, and a plain median over a
   run that caught more of those seconds than its twin would read as a
   regression. The verification pass runs after the clock stops.

   The traced run ([~trace:true]) alternates untraced and traced
   repetitions, so its tracing overhead is measured in the same
   process; its per-layer metrics come from the spans of set-up, the
   traced repetitions and verification. End-to-end metrics are only
   ever taken untraced. *)

module Json = Observe.Json

(* Set-up repeats at least [setup_min_reps] times and for at least a
   tenth of the timed phase, so a set-up of a few milliseconds still
   gets a median over enough samples to hold still across runs. *)
let setup_min_reps = 3
let setup_max_reps = 20

let summary ?value xs =
  ( {
      Bound.median = Option.value ~default:(Stats.median xs) value;
      min = List.fold_left Float.min infinity xs;
      max = List.fold_left Float.max neg_infinity xs;
    },
    List.length xs )

let one x = summary [ x ]

(* Host seconds of one repetition: each operation's fast-half median
   over the repetitions, summed, so each operation keeps the samples a
   neighbour did not slow, whichever repetition they fell in. *)
let rep_seconds reps =
  match reps with
  | ({ Workload.times = _ :: _ as ops; _ }, _) :: _ ->
      List.fold_left
        (fun acc (op, _) ->
          acc
          +. Stats.fast_half_median
               (List.filter_map (fun (r, _) -> List.assoc_opt op r.Workload.times) reps))
        0. ops
  | _ -> Stats.fast_half_median (List.map snd reps)

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* Peak resident set of this process (forked workers not counted). *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (float_of_int kb /. 1024.))
         | _ -> None)
  |> Option.value ~default:nan

(* Layers whose self time the traced run reports as a share of its
   wall time (the layers some span is opened around). *)
let self_layers = [ "toolchain"; "msp430"; "replay"; "observe"; "dse"; "faultinject"; "perf" ]

(* Inner build layers only reachable through shadow calls, reported as
   mean milliseconds per call. *)
let shadow_ms =
  [
    ("minic.compile_ms", "minic.compile");
    ("masm.assemble_ms", "masm.assemble");
    ("swapram.instrument_ms", "swapram.instrument");
    ("blockcache.instrument_ms", "blockcache.instrument");
    ("toolchain.prepare_ms", "toolchain.prepare");
  ]

let repeat (w : Workload.t) ~seconds =
  let t0 = now () in
  let rec go acc =
    let r, dt = Experiments.Sweep.timed w.Workload.rep in
    let acc = (r, dt) :: acc in
    if now () -. t0 >= seconds then List.rev acc else go acc
  in
  go []

(* The traced run alternates untraced and traced repetitions, so both
   halves see the same warm-up and host drift; the untraced ones only
   serve the tracing-overhead comparison. Returns both lists and the
   untraced seconds, which are not part of the traced wall time. *)
let repeat_alternating (w : Workload.t) ~seconds =
  let t0 = now () in
  let rec go untraced traced untraced_s =
    Spans.on := false;
    let u = Experiments.Sweep.timed w.Workload.rep in
    Spans.on := true;
    let t = Experiments.Sweep.timed w.Workload.rep in
    let untraced = u :: untraced and traced = t :: traced and untraced_s = untraced_s +. snd u in
    if now () -. t0 >= seconds then (List.rev untraced, List.rev traced, untraced_s)
    else go untraced traced untraced_s
  in
  go [] [] 0.

let per_layer ~wall ~untraced ~traced layer_values =
  let shadow = Spans.shadow_seconds () in
  let self = Spans.self_by_layer () in
  let rep_s = rep_seconds in
  let mean_ms name =
    let t = Spans.total name in
    if t.Spans.count = 0 then nan else t.Spans.seconds /. float_of_int t.Spans.count *. 1e3
  in
  List.map
    (fun l ->
      (l ^ ".self_frac", "frac", one (Option.value ~default:0. (List.assoc_opt l self) /. (wall -. shadow))))
    self_layers
  @ List.map (fun (m, span) -> (m, "ms", one (mean_ms span))) shadow_ms
  @ [
      ("bench.trace_overhead_frac", "frac", one ((rep_s traced -. rep_s untraced) /. rep_s untraced));
      ("trace.coverage_frac", "frac", one (Spans.coverage ~wall));
    ]
  @ List.map
      (fun (m, unit) -> (m, unit, one (Option.value ~default:0. (List.assoc_opt m layer_values))))
      Workload.layer_units

let run ~(registry : Registry.t) ?(size = Workload.full) ~seed ~seconds ~trace ~root name =
  let perf_dir = Filename.concat root ".perf" in
  if not (Sys.file_exists perf_dir) then Sys.mkdir perf_dir 0o755;
  let dir = Filename.concat perf_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  match Workload.make ~size ~seed ~root ~dir name with
  | None -> Error ("unknown workload " ^ name)
  | Some w ->
      if trace then Spans.enable ~workload:name else Spans.on := false;
      Fun.protect ~finally:w.Workload.cleanup @@ fun () ->
      let rec setups acc total =
        if List.length acc >= setup_max_reps
           || (List.length acc >= setup_min_reps && total >= seconds /. 10.)
        then acc
        else
          let _, dt = Experiments.Sweep.timed w.Workload.setup in
          setups (dt :: acc) (total +. dt)
      in
      let setups = setups [] 0. in
      Gc.compact ();
      let t0 = now () in
      let untraced, reps, untraced_s =
        if trace then repeat_alternating w ~seconds else ([], repeat w ~seconds, 0.)
      in
      let check = w.Workload.verify () in
      let layer_values = if trace then w.Workload.layer () else [] in
      let wall = List.fold_left ( +. ) 0. setups +. (now () -. t0) -. untraced_s in
      let all = List.map fst (untraced @ reps) @ [ check ] in
      let digests = List.sort_uniq compare (List.map (fun (r, _) -> r.Workload.digest) (untraced @ reps)) in
      let errors =
        List.concat_map (fun r -> r.Workload.errors) all
        @ if List.length digests > 1 then [ "repetitions produced different outputs" ] else []
      in
      let raw =
        if trace then per_layer ~wall ~untraced ~traced:reps layer_values
        else
          let ops = Stats.median (List.map (fun (r, _) -> float_of_int r.Workload.ops) reps) in
          [
            ("setup_s", "s", summary ~value:(Stats.fast_half_median setups) setups);
            ( "ops_per_s",
              "ops/s",
              summary ~value:(ops /. rep_seconds reps)
                (List.map (fun (r, dt) -> float_of_int r.Workload.ops /. dt) reps) );
            ("peak_rss_mb", "MiB", one (peak_rss_mb ()));
          ]
      in
      let registered = if trace then registry.Registry.per_layer else registry.Registry.end_to_end in
      let unregistered =
        List.filter_map
          (fun (m, unit, _) ->
            match List.find_opt (fun r -> r.Registry.name = m) registered with
            | Some r when r.Registry.unit = unit -> None
            | _ -> Some (Printf.sprintf "metric %s (%s) is not registered in BENCHMARK.json" m unit))
          raw
        @ List.filter_map
            (fun r ->
              if List.exists (fun (m, _, _) -> m = r.Registry.name) raw then None
              else Some ("registered metric " ^ r.Registry.name ^ " was not measured"))
            registered
      in
      if unregistered <> [] then Error (String.concat "; " unregistered)
      else
        let attempted = List.fold_left (fun a r -> a + r.Workload.ops) 0 all in
        let failed = List.fold_left (fun a r -> a + r.Workload.failed) 0 all in
        Ok
          {
            Report.workload = name;
            correct = failed = 0 && errors = [];
            attempted = max 1 attempted;
            failed = (if errors <> [] then max 1 failed else failed);
            metrics =
              List.map (fun (name, unit, (summary, n)) -> { Report.name; unit; summary; n }) raw;
            outputs = w.Workload.outputs () @ [ ("digest", Json.String (String.concat "," digests)) ];
            errors;
            latency =
              Report.latency
                (List.concat_map
                   (fun (r, dt) ->
                     List.map (fun s -> s *. 1e3)
                       (if r.Workload.times = [] then [ dt ] else List.map snd r.Workload.times))
                   reps);
          }

(* Human-readable report of one result, then (optionally) the traced
   run's self-time table. *)
let print (r : Report.t) =
  Printf.printf "%s: %s, %d ops attempted, %d failed\n" r.Report.workload
    (if r.Report.correct then "correct" else "INCORRECT")
    r.Report.attempted r.Report.failed;
  List.iter
    (fun (m : Report.metric) ->
      let s = m.Report.summary in
      if m.Report.n > 1 then
        Printf.printf "  %-40s %14.6g %-8s (min %.6g, max %.6g, n=%d)\n" m.Report.name s.Bound.median
          m.Report.unit s.Bound.min s.Bound.max m.Report.n
      else Printf.printf "  %-40s %14.6g %s\n" m.Report.name s.Bound.median m.Report.unit)
    r.Report.metrics;
  (match r.Report.latency with
  | [] -> ()
  | l ->
      Printf.printf "  op latency (ms): %s\n"
        (String.concat ", " (List.map (fun (k, v) -> k ^ " " ^ Json.to_string v) l)));
  List.iter (fun (k, v) -> Printf.printf "  output %-33s %s\n" k (Json.to_string v)) r.Report.outputs;
  List.iter (fun e -> Printf.printf "  error: %s\n" e) r.Report.errors

let print_self_times () =
  let self = Spans.self_by_layer () in
  let total = List.fold_left (fun a (_, s) -> a +. s) 0. self in
  Printf.printf "  self time by layer (shadow calls excluded):\n";
  List.iter
    (fun (l, s) -> Printf.printf "    %-14s %9.3f s  %5.1f%%\n" l s (100. *. s /. total))
    (List.sort (fun (_, a) (_, b) -> compare b a) self)
