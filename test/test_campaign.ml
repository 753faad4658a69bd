(* Monte-Carlo campaign engine tests.

   The campaign's load-bearing promise is determinism: an outcome is a
   pure function of its plan, so serial, parallel, chaos-interrupted
   and checkpoint-resumed runs must all render byte-identical JSON.
   These tests exercise that contract end to end on a deliberately
   tiny plan, plus the statistics primitives underneath it and a
   differential-oracle property: no randomized schedule may escape
   the injector as an OCaml exception. *)

module C = Faultinject.Campaign
module FI = Faultinject.Injector
module FS = Faultinject.Schedule
module T = Experiments.Toolchain
module Json = Observe.Json
module Progress = Observe.Progress

(* --- Wilson score interval ------------------------------------- *)

let wilson_empty () =
  let lo, hi = C.wilson 0 0 in
  Alcotest.(check (float 1e-9)) "lo" 0.0 lo;
  Alcotest.(check (float 1e-9)) "hi" 1.0 hi

let wilson_known () =
  (* 10/10 successes at z=1.96: lo = z^2/(n+z^2) boundary ~ 0.7225 *)
  let lo, hi = C.wilson 10 10 in
  Alcotest.(check (float 1e-3)) "lo" 0.722 lo;
  Alcotest.(check (float 1e-9)) "hi" 1.0 hi;
  (* symmetric case: 5/10 is centred on 0.5 *)
  let lo', hi' = C.wilson 10 5 in
  Alcotest.(check (float 1e-9)) "symmetric" 0.5 ((lo' +. hi') /. 2.0)

let wilson_bounds_and_shrink () =
  let width n k =
    let lo, hi = C.wilson n k in
    Alcotest.(check bool) "lo >= 0" true (lo >= 0.0);
    Alcotest.(check bool) "hi <= 1" true (hi <= 1.0);
    Alcotest.(check bool) "lo <= hi" true (lo <= hi);
    hi -. lo
  in
  (* the interval narrows monotonically as evidence accumulates *)
  let w10 = width 10 9 in
  let w100 = width 100 90 in
  let w1000 = width 1000 900 in
  Alcotest.(check bool) "10 -> 100 narrows" true (w100 < w10);
  Alcotest.(check bool) "100 -> 1000 narrows" true (w1000 < w100)

(* --- per-trial seeds ------------------------------------------- *)

let trial_seeds_deterministic () =
  let s1 = C.trial_seed ~seed:7 ~cell:3 ~trial:42 in
  let s2 = C.trial_seed ~seed:7 ~cell:3 ~trial:42 in
  Alcotest.(check int) "stable across calls" s1 s2;
  Alcotest.(check bool) "non-negative" true (s1 >= 0)

let trial_seeds_distinct () =
  (* seeds across a small grid must not collide: a collision would
     silently run the same schedule twice and bias the statistics *)
  let tbl = Hashtbl.create 512 in
  for cell = 0 to 7 do
    for trial = 0 to 63 do
      let s = C.trial_seed ~seed:1 ~cell ~trial in
      (match Hashtbl.find_opt tbl s with
      | Some (c', t') ->
          Alcotest.failf "seed collision: (%d,%d) vs (%d,%d)" cell trial c' t'
      | None -> ());
      Hashtbl.add tbl s (cell, trial)
    done
  done;
  (* changing the campaign seed moves every trial seed *)
  Alcotest.(check bool) "campaign seed matters" true
    (C.trial_seed ~seed:1 ~cell:0 ~trial:0
    <> C.trial_seed ~seed:2 ~cell:0 ~trial:0)

(* --- samplers and tallies -------------------------------------- *)

let sampler_roundtrip () =
  List.iter
    (fun s ->
      match C.sampler_of_string (C.sampler_name s) with
      | Some s' -> Alcotest.(check bool) (C.sampler_name s) true (s = s')
      | None -> Alcotest.fail ("no parse for " ^ C.sampler_name s))
    C.all_samplers;
  Alcotest.(check bool) "bad name rejected" true
    (C.sampler_of_string "cosmic-ray" = None)

let tally_arithmetic () =
  let t =
    {
      C.tally_zero with
      C.t_trials = 3;
      t_consistent = 2;
      t_completed = 3;
      t_reboots = 11;
    }
  in
  let s = C.tally_add t (C.tally_add t C.tally_zero) in
  Alcotest.(check int) "trials" 6 s.C.t_trials;
  Alcotest.(check int) "consistent" 4 s.C.t_consistent;
  Alcotest.(check int) "reboots" 22 s.C.t_reboots

(* --- end-to-end campaign determinism --------------------------- *)

let tiny_plan =
  {
    C.default_plan with
    C.p_benchmarks = [ Workloads.Suite.journal ];
    p_runtimes =
      [
        T.Swapram_cache Swapram.Config.default_options;
        T.Checkpoint_runtime Swapram.Checkpoint.default_options;
      ];
    p_samplers = [ C.Uniform ];
    p_trials = 10;
    p_shard_trials = 5;
    p_seed = 11;
  }

let run_json ?jobs ?progress ?progress_file ?chaos plan =
  match C.run ?jobs ?progress ?progress_file ?chaos plan with
  | Ok o -> (o, Json.to_string (C.to_json o))
  | Error e -> Alcotest.fail ("campaign failed: " ^ e)

let serial_matches_parallel () =
  let o, serial = run_json ~jobs:1 tiny_plan in
  let _, par = run_json ~jobs:2 tiny_plan in
  Alcotest.(check string) "byte-identical reports" serial par;
  Alcotest.(check int) "all trials ran" 20 o.C.o_trials;
  List.iter
    (fun (cr : C.cell_result) ->
      let t = cr.C.cr_tally in
      Alcotest.(check int) "per-cell trials" 10 t.C.t_trials;
      Alcotest.(check bool) "outages landed" true (t.C.t_reboots > 0);
      Alcotest.(check bool) "consistency never exceeds completion" true
        (t.C.t_consistent <= t.C.t_completed);
      let lo, hi = cr.C.cr_consistency_ci in
      Alcotest.(check bool) "CI ordered" true (0.0 <= lo && lo <= hi && hi <= 1.0);
      match cr.C.cr_tally.C.t_completed with
      | 0 -> ()
      | _ ->
          Alcotest.(check bool) "cycle overhead >= 1 over golden" true
            (C.cycle_overhead cr >= 1.0))
    o.C.o_cells

let early_stop_is_deterministic () =
  (* swapram/journal/uniform is fully consistent, so ten trials narrow
     the Wilson interval to ~0.28 — a 0.4 threshold stops the cell
     after the second 5-trial shard on any worker layout *)
  let plan =
    {
      tiny_plan with
      C.p_runtimes = [ T.Swapram_cache Swapram.Config.default_options ];
      p_trials = 20;
      p_ci_width = Some 0.4;
    }
  in
  let o, serial = run_json ~jobs:1 plan in
  let _, par = run_json ~jobs:2 plan in
  Alcotest.(check string) "early stop agrees across layouts" serial par;
  match o.C.o_cells with
  | [ cr ] ->
      Alcotest.(check bool) "stopped early" true cr.C.cr_stopped_early;
      Alcotest.(check bool) "fewer trials than planned" true
        (cr.C.cr_tally.C.t_trials < 20);
      let lo, hi = cr.C.cr_consistency_ci in
      Alcotest.(check bool) "CI below threshold" true (hi -. lo <= 0.4)
  | _ -> Alcotest.fail "expected one cell"

(* --- self-healing worker pool under chaos ---------------------- *)

let survives_worker_kill () =
  (* kill the first worker that picks up shard 1, exactly once: the
     pool must respawn it, re-queue the shard and still produce the
     serial report byte for byte *)
  let marker = Filename.temp_file "campaign_chaos" ".marker" in
  Sys.remove marker;
  let chaos ~cell:_ ~shard =
    if
      shard = 1
      && Experiments.Parallel.in_worker ()
      && not (Sys.file_exists marker)
    then begin
      close_out (open_out marker);
      Unix._exit 17
    end
  in
  let deaths = ref 0 in
  let progress = function
    | Progress.Pool_event _ -> incr deaths
    | _ -> ()
  in
  let _, expected = run_json ~jobs:1 tiny_plan in
  let _, survived = run_json ~jobs:2 ~progress ~chaos tiny_plan in
  if Sys.file_exists marker then Sys.remove marker;
  Alcotest.(check string) "kill is invisible in the report" expected survived;
  Alcotest.(check bool) "the pool actually saw lifecycle events" true
    (!deaths > 0)

(* --- progress checkpoints: resume and extend ------------------- *)

(* [Filename.temp_file] leaves a zero-length file behind, which must
   read as a fresh checkpoint. *)
let with_progress_file f =
  let path = Filename.temp_file "campaign_progress" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let resume_replays_from_checkpoint () =
  with_progress_file (fun path ->
      let _, first = run_json ~jobs:1 ~progress_file:path tiny_plan in
      let cached = ref 0 and fresh = ref 0 in
      let progress = function
        | Progress.Shard_done { cached = true; _ } -> incr cached
        | Progress.Shard_done { cached = false; _ } -> incr fresh
        | _ -> ()
      in
      let _, second = run_json ~jobs:1 ~progress ~progress_file:path tiny_plan in
      Alcotest.(check string) "resumed report identical" first second;
      Alcotest.(check int) "nothing recomputed" 0 !fresh;
      (* 2 cells x 2 shards *)
      Alcotest.(check int) "every shard replayed" 4 !cached)

let extend_reuses_finished_shards () =
  with_progress_file (fun path ->
      let _ = run_json ~jobs:1 ~progress_file:path tiny_plan in
      let cached = ref 0 and fresh = ref 0 in
      let progress = function
        | Progress.Shard_done { cached = true; _ } -> incr cached
        | Progress.Shard_done { cached = false; _ } -> incr fresh
        | _ -> ()
      in
      (* grow 10 -> 15 trials per cell: the two finished shards per
         cell replay, only the new third shard is computed *)
      let bigger = { tiny_plan with C.p_trials = 15 } in
      let o, _ = run_json ~jobs:1 ~progress ~progress_file:path bigger in
      Alcotest.(check int) "old shards replayed" 4 !cached;
      Alcotest.(check int) "only new shards computed" 2 !fresh;
      Alcotest.(check int) "extended total" 30 o.C.o_trials;
      (* and the extended run must agree with a from-scratch run *)
      let _, scratch = run_json ~jobs:1 bigger in
      Alcotest.(check string) "extension matches scratch"
        (Json.to_string (C.to_json o))
        scratch)

let fingerprint_mismatch_is_an_error () =
  with_progress_file (fun path ->
      let _ = run_json ~jobs:1 ~progress_file:path tiny_plan in
      let other = { tiny_plan with C.p_seed = tiny_plan.C.p_seed + 1 } in
      match C.run ~progress_file:path other with
      | Error msg ->
          Alcotest.(check bool) "names the mismatch" true
            (String.length msg > 0)
      | Ok _ -> Alcotest.fail "expected a fingerprint mismatch error")

(* --- differential oracle property (blockcache) ----------------- *)

(* Randomized power-failure schedules against the block cache must
   always come back as a verdict — Pass, a mismatch, a livelock — and
   never escape the injector as an OCaml exception. The golden run is
   captured once; each property case injects a fresh schedule. *)
let prop_blockcache_never_escapes =
  let config =
    {
      (T.default_config Workloads.Suite.journal) with
      T.caching = T.Block_cache Blockcache.Config.default_options;
    }
  in
  let golden =
    match Faultinject.Oracle.golden config with
    | Ok g -> g
    | Error msg -> failwith ("golden run failed: " ^ msg)
  in
  let gen_schedule =
    QCheck2.Gen.(
      let* seed = int_range 0 0x3FFFFFFF in
      oneof
        [
          return (C.schedule_for C.Uniform golden seed);
          return (C.schedule_for C.Bursty golden seed);
          return (C.schedule_for C.Near_eviction golden seed);
          (let* min_gap = int_range 1_000 50_000 in
           let* extra = int_range 1 200_000 in
           return
             (FS.Random { seed; min_gap; max_gap = min_gap + extra }));
        ])
  in
  QCheck2.Test.make ~count:25
    ~name:"blockcache differential oracle never escapes" gen_schedule
    (fun schedule ->
      match
        FI.run_against ~max_reboots:500 ~watchdog_cycles:200_000_000 ~golden
          config schedule
      with
      | r ->
          (* the verdict is always printable and internally consistent *)
          String.length (FI.verdict_name r.FI.r_verdict) > 0
          && r.FI.r_reboots >= 0
          && r.FI.r_torn_reboots <= r.FI.r_reboots
      | exception e ->
          QCheck2.Test.fail_reportf "schedule escaped: %s"
            (Printexc.to_string e))

let suite =
  [
    Alcotest.test_case "wilson: empty" `Quick wilson_empty;
    Alcotest.test_case "wilson: known values" `Quick wilson_known;
    Alcotest.test_case "wilson: bounds and shrink" `Quick
      wilson_bounds_and_shrink;
    Alcotest.test_case "trial seeds: deterministic" `Quick
      trial_seeds_deterministic;
    Alcotest.test_case "trial seeds: distinct" `Quick trial_seeds_distinct;
    Alcotest.test_case "sampler names round-trip" `Quick sampler_roundtrip;
    Alcotest.test_case "tally arithmetic" `Quick tally_arithmetic;
    Alcotest.test_case "serial matches parallel" `Slow serial_matches_parallel;
    Alcotest.test_case "early stop is deterministic" `Slow
      early_stop_is_deterministic;
    Alcotest.test_case "survives a worker kill" `Slow survives_worker_kill;
    Alcotest.test_case "resume replays from checkpoint" `Slow
      resume_replays_from_checkpoint;
    Alcotest.test_case "extension reuses finished shards" `Slow
      extend_reuses_finished_shards;
    Alcotest.test_case "fingerprint mismatch errors" `Quick
      fingerprint_mismatch_is_an_error;
    QCheck_alcotest.to_alcotest prop_blockcache_never_escapes;
  ]
