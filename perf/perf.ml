(* perf.exe: the repository benchmark.

   run      run workloads and print every metric with its unit; the last
            line of output is the one-line JSON result
   trace    the same run, traced: per-layer metrics, a self-time table
            and a Chrome trace under .perf/
   compare  compare two result files metric by metric against the
            bounds in BENCHMARK.json

   Run from the repository root. See perf/README.md. *)

open Perf_lib
open Cmdliner

let root = "."
let perf_dir = Filename.concat root ".perf"

let registry () =
  match Registry.load ~path:(Filename.concat root Registry.default_path) () with
  | Ok r -> r
  | Error e ->
      prerr_endline ("perf: " ^ e);
      exit 2

(* One workload, in this process. *)
let run_one ~registry ~seed ~seconds ~trace ~out name =
  match Runner.run ~registry ~seed ~seconds ~trace ~root name with
  | exception e ->
      prerr_endline ("perf: " ^ name ^ ": " ^ Printexc.to_string e);
      2
  | Error e ->
      prerr_endline ("perf: " ^ e);
      2
  | Ok r ->
      Runner.print r;
      if trace then begin
        Runner.print_self_times ();
        let path = Filename.concat perf_dir (Printf.sprintf "trace-%s-seed%d.json" name seed) in
        Out_channel.with_open_bin path (fun oc -> output_string oc (Spans.chrome ()));
        Printf.printf "  chrome trace: %s\n" path
      end;
      Option.iter
        (fun path ->
          Report.write path (Report.file_json ~stamp:(Report.stamp ~root ~seed ~seconds ~trace) [ r ]))
        out;
      print_endline (Report.to_string (Report.line r));
      if r.Report.correct then 0 else 1

(* Several workloads: each in a fresh child process (this binary
   again), so peak RSS and GC state belong to one workload. *)
let run_many ~seed ~seconds ~trace ~out names =
  if not (Sys.file_exists perf_dir) then Sys.mkdir perf_dir 0o755;
  let parts =
    List.map
      (fun name ->
        let part = Filename.concat perf_dir (Printf.sprintf "part-%d-%s.json" (Unix.getpid ()) name) in
        let args =
          [|
            Sys.executable_name; "run"; "--workload"; name; "--seed"; string_of_int seed;
            "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
            "--out"; part;
          |]
        in
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
        let status = match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> 2 in
        let result = if Sys.file_exists part then Report.read part else Error "no result" in
        if Sys.file_exists part then Sys.remove part;
        (name, status, result))
      names
  in
  let results = List.concat_map (function _, _, Ok rs -> rs | _, _, Error _ -> []) parts in
  let out = Option.value ~default:(Filename.concat perf_dir "run.json") out in
  Report.write out (Report.file_json ~stamp:(Report.stamp ~root ~seed ~seconds ~trace) results);
  Printf.printf "\nsummary (seed %d, %g s per workload) -> %s\n" seed seconds out;
  List.iter
    (fun (name, status, result) ->
      match result with
      | Ok [ r ] ->
          Printf.printf "  %-15s %s\n" name (if r.Report.correct then "correct" else "INCORRECT");
          List.iter
            (fun (m : Report.metric) ->
              Printf.printf "    %-38s %14.6g %s\n" m.Report.name m.Report.summary.Bound.median m.Report.unit)
            r.Report.metrics
      | _ -> Printf.printf "  %-15s FAILED (exit %d)\n" name status)
    parts;
  if List.for_all (fun (_, status, _) -> status = 0) parts then 0 else 1

let run ~trace workloads seed seconds out =
  let registry = registry () in
  let seconds = Option.value ~default:(float_of_int registry.Registry.run_seconds) seconds in
  let names = if workloads = [] then Workload.names else workloads in
  match List.find_opt (fun n -> not (List.mem n Workload.names)) names with
  | Some n ->
      Printf.eprintf "perf: unknown workload %s (one of %s)\n" n (String.concat ", " Workload.names);
      2
  | None -> (
      match names with
      | [ name ] -> run_one ~registry ~seed ~seconds ~trace ~out name
      | names -> run_many ~seed ~seconds ~trace ~out names)

let compare old_file new_file =
  let registry = registry () in
  match (Report.read old_file, Report.read new_file) with
  | Error e, _ | _, Error e ->
      prerr_endline ("perf: " ^ e);
      2
  | Ok olds, Ok news ->
      Printf.printf "%-15s %-38s %14s %14s %9s %7s  %s\n" "workload" "metric" "old" "new" "delta" "bound"
        "verdict";
      List.iter
        (fun (r : Report.row) ->
          let delta =
            if r.Report.r_old = 0. then "" else Printf.sprintf "%+.1f%%" (100. *. (r.r_new -. r.r_old) /. Float.abs r.r_old)
          in
          Printf.printf "%-15s %-38s %14.6g %14.6g %9s %7s  %s\n" r.Report.r_workload r.r_metric r.r_old r.r_new delta
            (match r.r_bound with Some b -> Printf.sprintf "%.0f%%" (100. *. b) | None -> "-")
            (match r.r_verdict with Some v -> Bound.verdict_name v | None -> "info"))
        (Report.compare_results registry olds news);
      (match Report.output_drift olds news with
      | [] -> print_endline "deterministic outputs: identical"
      | drift ->
          List.iter (fun (w, k) -> Printf.printf "deterministic output changed: %s %s\n" w k) drift);
      0

let workloads =
  Arg.(value & opt_all string [] & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run (repeatable; default: all).")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Input seed.")

let seconds =
  Arg.(value & opt (some float) None & info [ "seconds" ] ~docv:"S"
         ~doc:"Length of the timed phase (default: run_seconds in BENCHMARK.json).")

let out = Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"Write the full JSON result here.")

let trace_flag =
  Arg.(value & opt (enum [ ("0", false); ("1", true) ]) false
       & info [ "trace" ] ~docv:"0|1" ~doc:"1: traced run, per-layer metrics.")

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"Run the benchmark workloads.")
    Term.(const (fun trace w s sec o -> run ~trace w s sec o) $ trace_flag $ workloads $ seed $ seconds $ out)

let trace_cmd =
  Cmd.v (Cmd.info "trace" ~doc:"Traced run: per-layer metrics and a Chrome trace.")
    Term.(const (run ~trace:true) $ workloads $ seed $ seconds $ out)

let compare_cmd =
  let file n = Arg.(required & pos n (some file) None & info [] ~docv:(if n = 0 then "OLD" else "NEW")) in
  Cmd.v (Cmd.info "compare" ~doc:"Compare two result files against the registered bounds.")
    Term.(const compare $ file 0 $ file 1)

let () = exit (Cmd.eval' (Cmd.group (Cmd.info "perf" ~doc:"Repository benchmark.") [ run_cmd; trace_cmd; compare_cmd ]))
