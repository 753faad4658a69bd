module Trace = Msp430.Trace
module Energy = Msp430.Energy

(* Profile-guided placement vs the default SwapRAM pipeline, per
   Table-2 benchmark: total cycles, energy and miss-handler entries
   before/after the train -> rebuild -> measure loop, plus the
   placement the pass chose (pinned / FRAM-resident counts). Shape to
   reproduce: pinning the hot set cuts cycles and energy on the
   miss-heavy benchmarks and never regresses the rest —
   bench/baseline.json pins both halves, and the exact gate
   (`swapram_cli compare`) names any change. *)

type row = {
  benchmark : Workloads.Bench_def.t;
  default_cycles : int;
  default_energy_nj : float;
  default_misses : int;
  pgo_cycles : int option;  (** None = PGO run failed / did not fit *)
  pgo_energy_nj : float option;
  pgo_misses : int option;
  pinned : int;
  fram_resident : int;
  note : string option;  (** failure reason when the PGO run has no cells *)
}

type t = row list

(* One row per entry of a 24 MHz {!Sweep}, matched by name to the
   same run's {!Sweep.compute_pgo} list. *)
let compute (sweep : Sweep.t) (pgo : Sweep.pgo_entry list) =
  List.map
    (fun (e : Sweep.entry) ->
      let name = e.Sweep.benchmark.Workloads.Bench_def.name in
      let default_ =
        Report.expect_completed ~what:(name ^ " swapram") e.Sweep.swapram
      in
      let misses_of (r : Toolchain.result) =
        match r.Toolchain.swapram_stats with
        | Some s -> s.Swapram.Runtime.misses
        | None -> 0
      in
      let base =
        {
          benchmark = e.Sweep.benchmark;
          default_cycles = Trace.total_cycles default_.Toolchain.stats;
          default_energy_nj = default_.Toolchain.energy.Energy.energy_nj;
          default_misses = misses_of default_;
          pgo_cycles = None;
          pgo_energy_nj = None;
          pgo_misses = None;
          pinned = 0;
          fram_resident = 0;
          note = None;
        }
      in
      let entry =
        List.find_opt
          (fun (p : Sweep.pgo_entry) ->
            p.Sweep.pgo_benchmark.Workloads.Bench_def.name = name)
          pgo
      in
      match entry with
      | None -> { base with note = Some "not run" }
      | Some { Sweep.pgo = Error e; _ } -> { base with note = Some e }
      | Some { Sweep.pgo = Ok r; _ } -> (
          let placement = r.Toolchain.pg_placement in
          let counts =
            {
              base with
              pinned = List.length placement.Swapram.Pgo.pl_pinned;
              fram_resident =
                List.length placement.Swapram.Pgo.pl_fram_resident;
            }
          in
          match r.Toolchain.pg_measured with
          | Toolchain.Completed m ->
              {
                counts with
                pgo_cycles = Some (Trace.total_cycles m.Toolchain.stats);
                pgo_energy_nj = Some m.Toolchain.energy.Energy.energy_nj;
                pgo_misses = Some (misses_of m);
              }
          | Toolchain.Crashed o ->
              { counts with note = Some (Report.outcome_cell o) }
          | Toolchain.Did_not_fit msg -> { counts with note = Some msg }))
    sweep

let geo_mean_delta t ~get_default ~get_pgo =
  Report.geo_mean
    (List.filter_map
       (fun r ->
         match get_pgo r with
         | Some v when get_default r > 0.0 -> Some (v /. get_default r)
         | _ -> None)
       t)

let render t =
  let header =
    [ "benchmark"; "default cyc"; "pgo cyc"; "delta"; "default uJ"; "pgo uJ";
      "delta"; "misses"; "pgo misses"; "pinned"; "resident" ]
  in
  let uj nj = Printf.sprintf "%.1f" (nj /. 1000.0) in
  let rows =
    List.map
      (fun r ->
        match (r.pgo_cycles, r.pgo_energy_nj, r.pgo_misses) with
        | Some c, Some e, Some m ->
            [
              r.benchmark.Workloads.Bench_def.name;
              string_of_int r.default_cycles;
              string_of_int c;
              Report.pct ~vs:r.default_cycles c;
              uj r.default_energy_nj;
              uj e;
              Report.pctf ~vs:r.default_energy_nj e;
              string_of_int r.default_misses;
              string_of_int m;
              string_of_int r.pinned;
              string_of_int r.fram_resident;
            ]
        | _ ->
            [
              r.benchmark.Workloads.Bench_def.name;
              string_of_int r.default_cycles;
              (match r.note with Some n -> n | None -> "?");
              "-"; "-"; "-"; "-"; "-"; "-"; "-"; "-";
            ])
      t
  in
  let cyc_ratio =
    geo_mean_delta t
      ~get_default:(fun r -> float_of_int r.default_cycles)
      ~get_pgo:(fun r -> Option.map float_of_int r.pgo_cycles)
  in
  let nrg_ratio =
    geo_mean_delta t
      ~get_default:(fun r -> r.default_energy_nj)
      ~get_pgo:(fun r -> r.pgo_energy_nj)
  in
  let improved =
    List.length
      (List.filter
         (fun r ->
           match (r.pgo_cycles, r.pgo_energy_nj) with
           | Some c, Some e ->
               c < r.default_cycles && e < r.default_energy_nj
           | _ -> false)
         t)
  in
  Report.heading
    "Profile-guided placement vs default SwapRAM (24 MHz, trained in-situ)"
  ^ Report.table ~aligns:[ Report.Left ] (header :: rows)
  ^ "\n"
  ^ Printf.sprintf
      "geo-mean deltas: cycles %+.2f%%, energy %+.2f%%; %d of %d benchmarks \
       improved on both\n"
      (100.0 *. (cyc_ratio -. 1.0))
      (100.0 *. (nrg_ratio -. 1.0))
      improved (List.length t)
