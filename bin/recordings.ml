(* Record once / replay many: record captures the counted event stream
   of one configuration into a compact binary trace; replay re-evaluates
   cache models against it without re-executing the CPU. *)

open Common
module Engine = Replay.Engine
module Replay_sweep = Experiments.Replay_sweep

let load trace =
  Result.map_error
    (fun e -> trace ^ ": " ^ Engine.error_message e)
    (Engine.load trace)

let record config out telemetry =
  with_telemetry ~command:"record" telemetry
    ~fields:(("trace", Observe.Json.String out) :: config_fields config)
  @@ fun () ->
  let* r = completed (Toolchain.run_recorded ~trace:out config) in
  let* l = load out in
  print_config config;
  print_cycles r.stats;
  Printf.printf "events       : %d (%d B on disk)\n" l.events l.bytes;
  Printf.printf "fingerprint  : %d\n" l.header.fingerprint;
  match Replay_sweep.verify_exact l r with
  | [] ->
      Printf.printf
        "self-check   : OK — trace replays the recording exactly\n";
      `Ok ()
  | m :: _ -> `Error (false, "recorded trace does not replay exactly: " ^ m)

(* --check: re-execute the configuration the header names and fail
   unless the replay reproduces it bit-for-bit. *)
let check_against_execution (l : Engine.loaded) =
  let* config =
    Toolchain.config_of_header ~find:Workloads.Suite.find l.header
  in
  let* res =
    completed ~what:"check re-execution: " (Toolchain.run config)
  in
  match Replay_sweep.verify_exact l res with
  | [] ->
      Printf.printf
        "check        : OK — replay reproduces a fresh execution bit-for-bit\n";
      `Ok ()
  | mismatches ->
      `Error
        ( false,
          "replay diverges from execution: " ^ String.concat "; " mismatches )

let replay trace budgets policies block check frequency_mhz jobs telemetry =
  with_telemetry ~command:"replay" telemetry
    ~fields:
      [ ("trace", Observe.Json.String trace); ("jobs", Observe.Json.Int jobs) ]
  @@ fun () ->
  let* l = load trace in
  let h = l.header in
  Printf.printf "trace        : %s\n" (Filename.basename trace);
  Printf.printf "benchmark    : %s (seed %d)\n" h.benchmark h.seed;
  Printf.printf "system       : %s, %s, %d MHz\n" h.system h.placement
    h.frequency_mhz;
  Printf.printf "granularity  : %s\n"
    (match h.granularity with
    | Replay.Trace_file.Functions sizes ->
        Printf.sprintf "functions (%d)" (Array.length sizes)
    | Replay.Trace_file.Lines n -> Printf.sprintf "%d B lines" n);
  Printf.printf "events       : %d (%d B on disk)\n" l.events l.bytes;
  Printf.printf "footprint    : %d B\n" (Engine.footprint l);
  let* t = Engine.exact ?frequency_mhz l in
  Printf.printf "cycles       : %d unstalled + %d stalls = %d (at %d MHz)\n"
    t.t_unstalled t.t_stall t.t_cycles t.t_frequency_mhz;
  Printf.printf "energy       : %.1f uJ, %.3f ms\n" (t.t_energy_nj /. 1000.0)
    (t.t_time_s *. 1000.0);
  let cells =
    Replay_sweep.grid ~budgets ~policies ()
    |> List.map (fun c -> { c with Replay_sweep.c_block = block })
  in
  let* results = Replay_sweep.replay_cells ~jobs l cells in
  List.iter
    (fun (r : Replay_sweep.cell_result) ->
      let s = r.r_sim in
      Printf.printf
        "cell         : budget=%-5d policy=%-4s refs=%d misses=%d cold=%d \
         evictions=%d loaded=%d B miss-rate=%.6f\n"
        r.r_cell.c_budget
        (Engine.policy_name r.r_cell.c_policy)
        s.s_refs s.s_misses s.s_cold_misses s.s_evictions s.s_bytes_loaded
        s.s_miss_rate)
    results;
  if check then check_against_execution l else `Ok ()
