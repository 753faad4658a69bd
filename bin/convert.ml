(* Command-line converters over the libraries' own lookups, so that a
   misspelled value is a usage error naming the option. *)

module Toolchain = Experiments.Toolchain
module Campaign = Faultinject.Campaign
open Cmdliner

(* A converter over a library lookup; [names], when given, lists the
   accepted spellings in the error. *)
let named ?names what of_string to_string =
  let alternatives =
    match names with None -> "" | Some l -> " (" ^ String.concat "|" l ^ ")"
  in
  Arg.conv
    ( (fun s ->
        Option.to_result
          ~none:(`Msg (Printf.sprintf "unknown %s %s%s" what s alternatives))
          (of_string s)),
      fun ppf v -> Format.pp_print_string ppf (to_string v) )

let positive =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n > 0 -> Ok n
        | _ -> Error (`Msg (s ^ " is not a positive integer"))),
      Format.pp_print_int )

let benchmark =
  named "benchmark" Workloads.Suite.find (fun b -> b.Workloads.Bench_def.name)

let system systems =
  named "system"
    ~names:(List.map Toolchain.caching_name systems)
    (fun s -> List.find_opt (fun c -> Toolchain.caching_name c = s) systems)
    Toolchain.caching_name

let placement =
  named "placement"
    ~names:(List.map Toolchain.placement_key Toolchain.placements)
    (fun s ->
      List.find_opt
        (fun p -> Toolchain.placement_key p = s)
        Toolchain.placements)
    Toolchain.placement_key

let frequency =
  named "frequency" ~names:[ "8"; "24" ]
    (fun s ->
      Option.bind (int_of_string_opt s) Msp430.Platform.frequency_of_mhz)
    (fun f -> string_of_int (Msp430.Platform.mhz f))

let engine =
  named "engine" ~names:[ "reference"; "superblock" ]
    Msp430.Cpu.engine_of_string Msp430.Cpu.engine_name

(* run's --engine also takes check, as [None]. *)
let run_engine =
  named "engine" ~names:[ "reference"; "superblock"; "check" ]
    (function
      | "check" -> Some None
      | s -> Option.map Option.some (Msp430.Cpu.engine_of_string s))
    (function None -> "check" | Some e -> Msp430.Cpu.engine_name e)

let policy =
  named "policy" ~names:[ "lru"; "lfu"; "cost" ] Replay.Engine.policy_of_string
    Replay.Engine.policy_name

let sampler =
  named "sampler"
    ~names:(List.map Campaign.sampler_name Campaign.all_samplers)
    Campaign.sampler_of_string Campaign.sampler_name

(* --jobs 0 is one worker per core. *)
let jobs =
  named "job count"
    (fun s ->
      Option.map
        (fun n -> if n <= 0 then Experiments.Parallel.ncores () else n)
        (int_of_string_opt s))
    string_of_int

(* A file read whole at parse time and parsed by [parse]. *)
let file parse describe =
  Arg.conv
    ( (fun path ->
        match Common.read_file path with
        | contents ->
            Result.map_error
              (fun e -> `Msg (path ^ ": " ^ e))
              (parse path contents)
        | exception Sys_error e -> Error (`Msg e)),
      fun ppf v -> Format.pp_print_string ppf (describe v) )
