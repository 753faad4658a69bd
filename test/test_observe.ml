(* Observability-layer tests.

   The central invariant: attribution is exact. Every counted cycle
   and memory access is mirrored to the observer after the aggregate
   counters update, so the profiler's per-function sums must equal the
   simulator's aggregate totals — equality, not approximation. The
   properties below check this for random programs under both caching
   runtimes, and that attaching the observer perturbs nothing. *)

module Trace = Msp430.Trace
module Energy = Msp430.Energy
module Toolchain = Experiments.Toolchain

let bench_of_source source =
  {
    Workloads.Bench_def.name = "prop";
    short = "PRP";
    source = (fun _ -> source);
    fits_data_in_sram = true;
  }

let small_swapram =
  Toolchain.Swapram_cache
    {
      Swapram.Config.default_options with
      Swapram.Config.cache_size = 512;
      debug_checks = true;
    }

let small_block =
  Toolchain.Block_cache
    {
      Blockcache.Config.default_options with
      Blockcache.Config.cache_size = 512;
      debug_checks = true;
    }

let run_observed ~caching source =
  let config =
    { (Toolchain.default_config (bench_of_source source)) with Toolchain.caching }
  in
  match Toolchain.run ~observe:Toolchain.default_observe config with
  | Toolchain.Completed r -> r
  | Toolchain.Crashed o ->
      failwith ("observed run did not halt: " ^ Msp430.Cpu.outcome_name o)
  | Toolchain.Did_not_fit msg -> failwith ("did not fit: " ^ msg)

let check_conservation (r : Toolchain.result) =
  let obs = Option.get r.Toolchain.observation in
  let profiler = obs.Toolchain.o_profiler in
  let stats = r.Toolchain.stats in
  let totals = Observe.Profiler.totals profiler in
  let fram_reads = stats.Trace.fram_ifetch + stats.Trace.fram_data_reads in
  let fail fmt = QCheck2.Test.fail_reportf fmt in
  if Observe.Profiler.cycles_of totals <> Trace.total_cycles stats then
    fail "cycles: attributed %d vs trace %d"
      (Observe.Profiler.cycles_of totals)
      (Trace.total_cycles stats)
  else if totals.Observe.Profiler.unstalled <> stats.Trace.unstalled_cycles
  then
    fail "unstalled: attributed %d vs trace %d" totals.Observe.Profiler.unstalled
      stats.Trace.unstalled_cycles
  else if totals.Observe.Profiler.stall <> stats.Trace.stall_cycles then
    fail "stalls: attributed %d vs trace %d" totals.Observe.Profiler.stall
      stats.Trace.stall_cycles
  else if totals.Observe.Profiler.instrs <> stats.Trace.instructions then
    fail "instructions: attributed %d vs trace %d"
      totals.Observe.Profiler.instrs stats.Trace.instructions
  else if totals.Observe.Profiler.fram_read_hits <> stats.Trace.fram_read_hits
  then
    fail "fram read hits: attributed %d vs trace %d"
      totals.Observe.Profiler.fram_read_hits stats.Trace.fram_read_hits
  else if
    totals.Observe.Profiler.fram_read_misses
    <> fram_reads - stats.Trace.fram_read_hits
  then
    fail "fram read misses: attributed %d vs trace %d"
      totals.Observe.Profiler.fram_read_misses
      (fram_reads - stats.Trace.fram_read_hits)
  else if totals.Observe.Profiler.fram_writes <> stats.Trace.fram_writes then
    fail "fram writes: attributed %d vs trace %d"
      totals.Observe.Profiler.fram_writes stats.Trace.fram_writes
  else if totals.Observe.Profiler.sram_accesses <> Trace.sram_accesses stats
  then
    fail "sram accesses: attributed %d vs trace %d"
      totals.Observe.Profiler.sram_accesses
      (Trace.sram_accesses stats)
  else if Observe.Profiler.folded_total profiler <> Trace.total_cycles stats
  then
    fail "folded stacks: %d cycles vs trace %d"
      (Observe.Profiler.folded_total profiler)
      (Trace.total_cycles stats)
  else begin
    (* the energy model is linear in the counters, so per-function
       attribution must sum to the whole-run report (up to float
       summation order) *)
    let params = Energy.point_24mhz in
    let attributed =
      List.fold_left
        (fun acc (row : Observe.Profiler.row) ->
          acc +. row.Observe.Profiler.energy_nj)
        0.0
        (Observe.Profiler.rows ~params profiler)
    in
    let whole = (Energy.evaluate params stats).Energy.energy_nj in
    let rel = abs_float (attributed -. whole) /. Float.max 1.0 whole in
    if rel > 1e-9 then
      fail "energy: attributed %.6f nJ vs whole-run %.6f nJ (rel %.2e)"
        attributed whole rel
    else true
  end

let prop_conservation_swapram =
  QCheck2.Test.make ~count:35
    ~name:"profiler conserves cycles/accesses/energy (swapram)"
    ~print:(fun s -> s)
    Test_differential.gen_program
    (fun source -> check_conservation (run_observed ~caching:small_swapram source))

let prop_conservation_block =
  QCheck2.Test.make ~count:25
    ~name:"profiler conserves cycles/accesses/energy (block cache)"
    ~print:(fun s -> s)
    Test_differential.gen_program
    (fun source -> check_conservation (run_observed ~caching:small_block source))

let prop_observation_is_pure =
  QCheck2.Test.make ~count:25
    ~name:"attaching the observer perturbs nothing" ~print:(fun s -> s)
    Test_differential.gen_program
    (fun source ->
      let observed = run_observed ~caching:small_swapram source in
      let config =
        {
          (Toolchain.default_config (bench_of_source source)) with
          Toolchain.caching = small_swapram;
        }
      in
      match Toolchain.run config with
      | Toolchain.Completed plain ->
          let os = observed.Toolchain.stats and ps = plain.Toolchain.stats in
          Trace.total_cycles os = Trace.total_cycles ps
          && os.Trace.instructions = ps.Trace.instructions
          && Trace.fram_accesses os = Trace.fram_accesses ps
          && Trace.sram_accesses os = Trace.sram_accesses ps
          && os.Trace.fram_read_hits = ps.Trace.fram_read_hits
          && observed.Toolchain.uart = plain.Toolchain.uart
          && observed.Toolchain.return_value = plain.Toolchain.return_value
      | _ -> false)

(* The bounded ring must always hold exactly the newest
   min(capacity, recorded) events, oldest-first, with their original
   stamps — across any number of wraparounds. Events are stamped with
   the trace's cycle counter at emission, so bumping it between
   emissions makes each event identifiable. *)
let prop_event_ring_wraparound =
  QCheck2.Test.make ~count:200
    ~name:"event ring keeps the newest N events in order"
    ~print:(fun (cap, n) -> Printf.sprintf "capacity=%d events=%d" cap n)
    QCheck2.Gen.(pair (int_range 1 8) (int_range 0 40))
    (fun (capacity, n) ->
      let stats = Trace.create () in
      let ring = Observe.Events.create ~capacity stats in
      for i = 0 to n - 1 do
        stats.Trace.unstalled_cycles <- i;
        (Observe.Events.sink ring).Trace.phase (string_of_int i)
      done;
      let got =
        List.map
          (fun { Observe.Events.at; ev } ->
            match ev with
            | Trace.Runtime_event (Trace.Phase { name }) ->
                (at, int_of_string name)
            | _ -> QCheck2.Test.fail_reportf "unexpected event in ring")
          (Observe.Events.to_list ring)
      in
      let expected = List.init (min capacity n) (fun i -> n - min capacity n + i) in
      if Observe.Events.recorded ring <> n then
        QCheck2.Test.fail_reportf "recorded %d, expected %d"
          (Observe.Events.recorded ring) n
      else if Observe.Events.dropped ring <> max 0 (n - capacity) then
        QCheck2.Test.fail_reportf "dropped %d, expected %d"
          (Observe.Events.dropped ring)
          (max 0 (n - capacity))
      else if got <> List.map (fun i -> (i, i)) expected then
        QCheck2.Test.fail_reportf "ring contents mismatch: got [%s]"
          (String.concat "; "
             (List.map (fun (at, i) -> Printf.sprintf "(%d,%d)" at i) got))
      else true)

(* --- Deterministic checks on a real benchmark -------------------------- *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let crc_observed =
  lazy
    (let config =
       {
         (Toolchain.default_config Workloads.Suite.crc) with
         Toolchain.caching =
           Toolchain.Swapram_cache Swapram.Config.default_options;
       }
     in
     match Toolchain.run ~observe:Toolchain.default_observe config with
     | Toolchain.Completed r -> r
     | _ -> failwith "crc under swapram did not complete")

let unit_checks =
  [
    Alcotest.test_case "crc attribution reconciles with trace totals" `Quick
      (fun () ->
        let r = Lazy.force crc_observed in
        let obs = Option.get r.Toolchain.observation in
        let totals = Observe.Profiler.totals obs.Toolchain.o_profiler in
        Alcotest.(check int)
          "cycles"
          (Trace.total_cycles r.Toolchain.stats)
          (Observe.Profiler.cycles_of totals);
        Alcotest.(check int)
          "instructions" r.Toolchain.stats.Trace.instructions
          totals.Observe.Profiler.instrs);
    Alcotest.test_case "crc profile attributes the hot function" `Quick
      (fun () ->
        let r = Lazy.force crc_observed in
        let obs = Option.get r.Toolchain.observation in
        let rows =
          Observe.Profiler.rows ~params:Energy.point_24mhz
            obs.Toolchain.o_profiler
        in
        let names = List.map (fun (x : Observe.Profiler.row) -> x.Observe.Profiler.name) rows in
        Alcotest.(check bool)
          "crc16_byte attributed" true
          (List.mem "crc16_byte" names);
        Alcotest.(check bool)
          "runtime handler attributed" true
          (List.mem "__sr_handler" names);
        (* rows are sorted by descending cycle count *)
        let cycles =
          List.map
            (fun (x : Observe.Profiler.row) ->
              Observe.Profiler.cycles_of x.Observe.Profiler.c)
            rows
        in
        Alcotest.(check bool)
          "sorted" true
          (List.sort (fun a b -> compare b a) cycles = cycles));
    Alcotest.test_case "crc render includes TOTAL row" `Quick (fun () ->
        let r = Lazy.force crc_observed in
        let obs = Option.get r.Toolchain.observation in
        let table =
          Observe.Profiler.render ~params:Energy.point_24mhz
            obs.Toolchain.o_profiler
        in
        Alcotest.(check bool) "has TOTAL" true (contains table "TOTAL"));
    Alcotest.test_case "chrome export is a trace-event document" `Quick
      (fun () ->
        (* a short program, so the whole narrative — including the
           time-zero boot marker — fits the bounded event ring *)
        let r =
          run_observed ~caching:small_swapram
            "int helper(int x) { int i = 0; int s = 0; while (i < 10) { s \
             = s + x; i = i + 1; } return s; }\n\
             int main(void) { return helper(3); }"
        in
        let obs = Option.get r.Toolchain.observation in
        let doc =
          Observe.Chrome.export ~symtab:obs.Toolchain.o_symtab
            obs.Toolchain.o_events
        in
        Alcotest.(check bool) "traceEvents" true (contains doc "\"traceEvents\"");
        Alcotest.(check bool) "phase marker" true (contains doc "phase:boot");
        Alcotest.(check bool) "miss spans" true (contains doc "miss:swapram"));
    Alcotest.test_case "chrome export survives hostile symbol names" `Quick
      (fun () ->
        (* Function names come from source text, which can contain
           anything; the exporter's JSON must stay valid and the
           names must survive a parse round-trip. *)
        let hostile =
          "ev\"il\\na\nme\t\x01\x1f\x7f\xc3\x28</script>\xff"
        in
        let program =
          Minic.Driver.program_of_source "int main(void) { return 0; }"
        in
        let image = Masm.Assembler.assemble program in
        let symtab = Observe.Symtab.of_image image in
        Observe.Symtab.add_resolver symtab (fun addr ->
            if addr = 0x4242 then Some hostile else None);
        let stats = Trace.create () in
        let ring = Observe.Events.create ~capacity:16 stats in
        let sink = Observe.Events.sink ring in
        sink.Trace.call 0x4242 (-1);
        stats.Trace.unstalled_cycles <- 5;
        sink.Trace.phase hostile;
        sink.Trace.return ();
        let doc = Observe.Chrome.export ~symtab ring in
        (* every byte outside printable ASCII must have been escaped *)
        String.iter
          (fun c ->
            Alcotest.(check bool)
              "printable ASCII only" true
              (Char.code c >= 0x20 && Char.code c < 0x7F))
          doc;
        match Observe.Json.parse doc with
        | Error e -> Alcotest.failf "export does not parse: %s" e
        | Ok json ->
            (* the hostile name decodes back to the original bytes *)
            let rec strings acc = function
              | Observe.Json.String s -> s :: acc
              | Observe.Json.List xs -> List.fold_left strings acc xs
              | Observe.Json.Obj kvs ->
                  List.fold_left (fun acc (_, v) -> strings acc v) acc kvs
              | _ -> acc
            in
            Alcotest.(check bool)
              "hostile name round-trips" true
              (List.mem hostile (strings [] json)));
    Alcotest.test_case "symtab resolves, falls back to hex" `Quick (fun () ->
        let r = Lazy.force crc_observed in
        let obs = Option.get r.Toolchain.observation in
        let symtab = obs.Toolchain.o_symtab in
        Alcotest.(check string)
          "trap page" "trap:0xFF00"
          (Observe.Symtab.name_of symtab 0xFF00);
        Alcotest.(check string)
          "unmapped" "0x0002"
          (Observe.Symtab.name_of symtab 0x0002));
  ]

(* The shadow stack holds at most 128 callers. Calls nested past that
   are counted, not pushed, so their returns must not pop a live
   caller: after 130 nested calls and 2 returns, the next
   instruction's folded key still holds all 128 callers (plus its own
   frame). *)
let profiler_depth_cap_test () =
  let symtab =
    Observe.Symtab.of_image
      (Masm.Assembler.assemble
         (Minic.Driver.program_of_source "int main(void) { return 0; }"))
  in
  let profiler = Observe.Profiler.create symtab in
  let sink = Observe.Profiler.sink profiler in
  let pc i = 0x0100 + (2 * i) in
  for i = 0 to 129 do
    sink.Trace.instr 0 (pc i);
    sink.Trace.call (pc (i + 1)) (-1)
  done;
  sink.Trace.return ();
  sink.Trace.return ();
  sink.Trace.instr 0 (pc 200);
  sink.Trace.cycles 7777 0;
  match
    List.find_opt
      (fun line -> String.ends_with ~suffix:" 7777" line)
      (Observe.Profiler.folded_lines profiler)
  with
  | None -> Alcotest.fail "no folded line for the last instruction"
  | Some line ->
      Alcotest.(check int)
        "frames in the folded key" 129
        (List.length (String.split_on_char ';' line))

let suite =
  unit_checks
  @ [
      QCheck_alcotest.to_alcotest prop_conservation_swapram;
      QCheck_alcotest.to_alcotest prop_conservation_block;
      QCheck_alcotest.to_alcotest prop_observation_is_pure;
      QCheck_alcotest.to_alcotest prop_event_ring_wraparound;
      Alcotest.test_case "profiler shadow stack survives its depth cap" `Quick
        profiler_depth_cap_test;
    ]
