(* Monte-Carlo fault-injection campaign demo: instead of a handful of
   hand-picked power-failure schedules (see intermittent.ml), run a
   seeded population of randomized outage schedules against each
   runtime and read survivability as a statistic — forward-progress
   rate, crash-consistency rate, mean reboots-to-completion and the
   cycle/energy overhead paid over the uninterrupted golden run, each
   with a Wilson-score confidence interval.

   The grid here is one benchmark (the idempotent journal) x three
   runtimes (SwapRAM cache, block cache, checkpointing runtime) x two
   samplers (uniform gaps, and the adversarial near-eviction sampler
   that aims outages inside each runtime's own critical windows). The
   campaign outcome is a pure function of the plan: rerunning this
   demo — serially, or sharded with ~jobs — prints identical numbers.

   Run with: dune exec examples/campaign_demo.exe *)

module Campaign = Faultinject.Campaign
module Toolchain = Experiments.Toolchain

let plan =
  {
    Campaign.default_plan with
    Campaign.p_benchmarks = [ Workloads.Suite.journal ];
    p_runtimes =
      [
        Toolchain.Swapram_cache Swapram.Config.default_options;
        Toolchain.Block_cache Blockcache.Config.default_options;
        Toolchain.Checkpoint_runtime Swapram.Checkpoint.default_options;
      ];
    p_samplers = [ Campaign.Uniform; Campaign.Near_eviction ];
    p_trials = 40;
    p_seed = 2024;
  }

let () =
  match
    Campaign.run ~jobs:2 ~progress:(Observe.Progress.auto stderr) plan
  with
  | Error msg ->
      prerr_endline ("campaign failed: " ^ msg);
      exit 1
  | Ok outcome ->
      print_newline ();
      print_string (Campaign.table outcome);
      print_newline ();
      (* The statistics should separate the runtimes: SwapRAM's
         redirection tables commit atomically, so it survives even the
         adversarial sampler; the checkpointing runtime survives by
         paying a large cycle overhead re-executing from snapshots. *)
      let find label =
        List.find
          (fun (cr : Campaign.cell_result) ->
            cr.Campaign.cr_cell.Campaign.cl_label = label)
          outcome.Campaign.o_cells
      in
      let swapram = find "journal/swapram/near-eviction" in
      let ckpt = find "journal/checkpoint/uniform" in
      let rate (t : Campaign.tally) =
        float_of_int t.Campaign.t_consistent
        /. float_of_int (max 1 t.Campaign.t_trials)
      in
      Printf.printf
        "swapram under near-eviction: %.0f%% consistent; checkpoint \
         overhead %.1fx cycles\n"
        (100.0 *. rate swapram.Campaign.cr_tally)
        (Campaign.cycle_overhead ckpt);
      if rate swapram.Campaign.cr_tally < 1.0 then (
        print_endline "swapram lost consistency under the campaign";
        exit 1)
