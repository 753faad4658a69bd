(* What the subcommand modules share: whole-file I/O, the telemetry
   wrapper, and the result and header lines of a simulated run. *)

module Toolchain = Experiments.Toolchain
module Trace = Msp430.Trace

let ( let* ) r f = match r with Ok v -> f v | Error e -> `Error (false, e)

(* Whole files, in binary mode; the channel is closed when the read or
   write raises. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc contents)

(* --telemetry: the host-side run ledger around a command. The
   manifest header carries the command name plus whatever identifying
   fields the command computed; the sink is closed on every exit path
   so the ledger is complete even when the command fails. *)
let with_telemetry ~command ~fields telemetry f =
  match telemetry with
  | None -> f ()
  | Some path -> (
      match Observe.Telemetry.enable path with
      | Error e -> `Error (false, e)
      | Ok () ->
          Observe.Telemetry.manifest
            (("tool", Observe.Json.String "swapram_cli")
            :: ("command", Observe.Json.String command)
            :: fields);
          Fun.protect ~finally:Observe.Telemetry.disable f)

let config_fields (c : Toolchain.config) =
  Observe.Json.
    [
      ("benchmark", String c.benchmark.Workloads.Bench_def.name);
      ("seed", Int c.seed);
      ("system", String (Toolchain.caching_name c.caching));
      ("config_fingerprint", Int (Toolchain.config_fingerprint c));
    ]

(* The result of a run that must halt cleanly; [what] prefixes the
   error. *)
let completed ?(what = "") = function
  | Toolchain.Completed r -> Ok r
  | Toolchain.Did_not_fit msg ->
      Error (what ^ "binary does not fit the platform: " ^ msg)
  | Toolchain.Crashed o ->
      Error (what ^ "run did not halt: " ^ Experiments.Report.outcome_cell o)

let print_benchmark (c : Toolchain.config) =
  Printf.printf "benchmark    : %s (seed %d)\n"
    c.benchmark.Workloads.Bench_def.name c.seed

let print_config (c : Toolchain.config) =
  print_benchmark c;
  Printf.printf "system       : %s, %s, %s\n"
    (Toolchain.caching_name c.caching)
    (Toolchain.placement_name (Toolchain.built_placement c))
    (Msp430.Platform.frequency_name c.frequency)

let print_cycles (stats : Trace.t) =
  Printf.printf "cycles       : %d unstalled + %d stalls = %d\n"
    stats.unstalled_cycles stats.stall_cycles (Trace.total_cycles stats)
