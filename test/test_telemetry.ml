(* Host-telemetry tests.

   Two contracts matter. The ledger must be faithful: every record
   survives an encode -> parse round trip, a parallel campaign's
   ledger narrates each worker's lifecycle, and the Chrome exporter
   gives each worker PID its own named track. And telemetry must be
   provably non-perturbing: deterministic artifacts — campaign JSON,
   the bench report — are byte-identical with telemetry on or off,
   serial or parallel, even when chaos kills a worker mid-run. *)

module Tel = Observe.Telemetry
module Json = Observe.Json
module Progress = Observe.Progress
module C = Faultinject.Campaign
module T = Experiments.Toolchain

(* --- record encode -> parse round trip ------------------------- *)

(* Json floats render through "%.6g" (lossy), so generated args stick
   to Int/String/Bool — the types the instrumentation emits. *)
let gen_args =
  QCheck2.Gen.(
    small_list
      (pair
         (string_size ~gen:printable (1 -- 8))
         (oneof
            [
              map (fun i -> Json.Int i) small_signed_int;
              map (fun s -> Json.String s) (string_size ~gen:printable (0 -- 12));
              map (fun b -> Json.Bool b) bool;
            ])))

let gen_record =
  QCheck2.Gen.(
    let* ts = map Int64.of_int (int_range 0 1_000_000_000) in
    let name = string_size ~gen:printable (1 -- 12) in
    oneof
      [
        (let* fields = gen_args in
         return (Tel.Manifest { ts; fields }));
        (let* id = int_range 1 10_000 in
         let* cat = name in
         let* n = name in
         let* args = gen_args in
         return (Tel.Span_begin { ts; id; cat; name = n; args }));
        (let* id = int_range 1 10_000 in
         let* args = gen_args in
         return (Tel.Span_end { ts; id; args }));
        (let* n = name in
         let* value = small_signed_int in
         return (Tel.Counter { ts; name = n; value }));
        (let* ev = oneofl [ "spawn"; "dispatch"; "result"; "died"; "requeue" ] in
         let* pid = int_range 0 1_000_000 in
         let* task = int_range (-1) 500 in
         let* args = gen_args in
         return (Tel.Worker { ts; ev; pid; task; args }));
      ])

let prop_record_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"ledger record round-trips" gen_record
    (fun r ->
      let line = Tel.record_to_line r in
      match Tel.record_of_line line with
      | Ok r' ->
          r = r'
          || QCheck2.Test.fail_reportf "parsed differently:\n%s\n%s" line
               (Tel.record_to_line r')
      | Error e -> QCheck2.Test.fail_reportf "no parse for %s: %s" line e)

let read_file_drops_torn_tail () =
  let path = Filename.temp_file "telemetry" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        (Tel.record_to_line (Tel.Counter { ts = 1L; name = "x"; value = 7 }));
      output_string oc "\n";
      (* writer killed mid-append: no trailing newline, truncated JSON *)
      output_string oc "{\"t\":\"c\",\"ts\":2,\"na";
      close_out oc;
      (match Tel.read_file path with
      | Ok [ Tel.Counter { value = 7; _ } ] -> ()
      | Ok rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs)
      | Error e -> Alcotest.fail e);
      (* the same garbage in the interior is corruption, not a tear *)
      let oc = open_out path in
      output_string oc "{\"t\":\"c\",\"ts\":2,\"na\n";
      output_string oc
        (Tel.record_to_line (Tel.Counter { ts = 1L; name = "x"; value = 7 }));
      output_string oc "\n";
      close_out oc;
      match Tel.read_file path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "interior corruption must not parse")

(* --- campaign fixtures ----------------------------------------- *)

let tiny_plan =
  {
    C.default_plan with
    C.p_benchmarks = [ Workloads.Suite.journal ];
    p_runtimes = [ T.Swapram_cache Swapram.Config.default_options ];
    p_samplers = [ C.Uniform ];
    p_trials = 10;
    p_shard_trials = 5;
    p_seed = 11;
  }

let campaign_json ?jobs ?chaos plan =
  match C.run ?jobs ?chaos plan with
  | Ok o -> Json.to_string (C.to_json o)
  | Error e -> Alcotest.fail ("campaign failed: " ^ e)

(* Run [f] with a fresh ledger enabled, return (f's result, records). *)
let with_ledger f =
  let path = Filename.temp_file "telemetry" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Tel.enable path with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("enable: " ^ e));
      Tel.manifest [ ("tool", Json.String "test") ];
      let v = Fun.protect ~finally:Tel.disable f in
      match Tel.read_file path with
      | Ok records -> (v, records)
      | Error e -> Alcotest.fail ("read_file: " ^ e))

let worker_pids records =
  List.filter_map
    (function
      | Tel.Worker { pid; ev; _ } when pid > 0 && ev = "spawn" -> Some pid
      | _ -> None)
    records
  |> List.sort_uniq compare

(* --- ledger structure and Chrome export ------------------------ *)

let parallel_ledger_has_worker_tracks () =
  let _, records = with_ledger (fun () -> campaign_json ~jobs:2 tiny_plan) in
  (match records with
  | Tel.Manifest _ :: _ -> ()
  | _ -> Alcotest.fail "manifest must be the first record");
  let pids = worker_pids records in
  Alcotest.(check int) "two workers spawned" 2 (List.length pids);
  let dispatches =
    List.length
      (List.filter
         (function Tel.Worker { ev = "dispatch"; _ } -> true | _ -> false)
         records)
  in
  let results =
    List.length
      (List.filter
         (function Tel.Worker { ev = "result"; _ } -> true | _ -> false)
         records)
  in
  (* 1 cell x 2 shards, none lost *)
  Alcotest.(check int) "dispatches" 2 dispatches;
  Alcotest.(check int) "every dispatch has a result" 2 results;
  (* the Chrome export names one track per worker pid, plus the host *)
  let trace = Tel.chrome records in
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "host track" true (contains trace "\"host\"");
  List.iter
    (fun pid ->
      Alcotest.(check bool)
        (Printf.sprintf "track for worker %d" pid)
        true
        (contains trace (Printf.sprintf "\"worker %d\"" pid)))
    pids;
  (* summary and csv render without raising and mention every worker *)
  let summary = Tel.summary records in
  List.iter
    (fun pid ->
      Alcotest.(check bool)
        (Printf.sprintf "summary row for %d" pid)
        true
        (contains summary (string_of_int pid)))
    pids;
  Alcotest.(check bool) "csv header" true
    (contains (Tel.csv records) "kind,name,cat,pid,task,start_ns,dur_ns,value")

(* --- purity: telemetry cannot change results ------------------- *)

let campaign_unperturbed_by_telemetry () =
  let bare = campaign_json ~jobs:1 tiny_plan in
  let serial_t, _ = with_ledger (fun () -> campaign_json ~jobs:1 tiny_plan) in
  let parallel_t, _ = with_ledger (fun () -> campaign_json ~jobs:2 tiny_plan) in
  Alcotest.(check string) "serial+telemetry is byte-identical" bare serial_t;
  Alcotest.(check string) "parallel+telemetry is byte-identical" bare
    parallel_t

let report_unperturbed_by_telemetry () =
  let compute () =
    Json.to_string
      Experiments.Bench_report.(
        compute ~slim:true
          (sweeps ~seed:1 ~benchmarks:[ Workloads.Suite.crc ] ()))
  in
  let bare = compute () in
  let with_t, records = with_ledger compute in
  Alcotest.(check string) "slim report is byte-identical" bare with_t;
  Alcotest.(check bool) "the ledger actually recorded spans" true
    (List.exists
       (function Tel.Span_begin { cat = "sweep"; _ } -> true | _ -> false)
       records)

(* --- one execution per cell ------------------------------------- *)

(* A bench report executes each configuration once: one recording per
   fitting (benchmark, cached system) pair feeds both "replay" and
   "dse", one DSE evaluation serves both renderings, and PGO trains on
   the sweep's own SwapRAM run, so a pgo span holds only the measured
   execution. Serial, so every span lands in this ledger. *)
let report_executes_each_cell_once () =
  let (full, slim), records =
    with_ledger (fun () ->
        let s =
          Experiments.Bench_report.sweeps ~jobs:1
            ~benchmarks:[ Workloads.Suite.crc ] ()
        in
        Experiments.Bench_report.(compute s, compute ~slim:true s))
  in
  let spans cat name =
    List.filter_map
      (function
        | Tel.Span_begin b when b.cat = cat && b.name = name ->
            let arg k = Option.bind (List.assoc_opt k b.args) Json.to_str in
            Some (arg "benchmark", arg "system")
        | _ -> None)
      records
  in
  let status system =
    Option.bind (Json.member "benchmarks" full) Json.to_list
    |> Option.get |> List.hd |> Json.member "systems" |> Option.get
    |> Json.member system |> Option.get |> Json.member "status"
    |> Option.get |> Json.to_str |> Option.get
  in
  let crc system = (Some "crc", Some system) in
  let pairs keep systems =
    List.filter_map
      (fun s -> if keep (status s) then Some (crc s) else None)
      systems
  in
  let cached = [ "swapram"; "block" ] in
  Alcotest.(check (list (pair (option string) (option string))))
    "one recording per fitting cached pair"
    (pairs (( = ) "completed") cached)
    (spans "toolchain" "record");
  Alcotest.(check int) "one dse evaluation" 1
    (List.length (spans "dse" "simulate"));
  let pgo = spans "toolchain" "pgo" in
  Alcotest.(check int) "one pgo run" 1 (List.length pgo);
  Alcotest.(check int)
    "one execution per sweep cell plus each pgo measurement"
    (List.length (pairs (( <> ) "did-not-fit") ("baseline" :: cached))
    + List.length pgo)
    (List.length (spans "toolchain" "execute"));
  Alcotest.(check bool) "full and slim share the dse object" true
    (Json.member "dse" full = Json.member "dse" slim
    && Json.member "dse" full <> None)

(* --- chaos: a killed worker leaves a truthful ledger ------------ *)

let chaos_kill_is_ledgered () =
  let marker = Filename.temp_file "telemetry_chaos" ".marker" in
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
  let expected = campaign_json ~jobs:1 tiny_plan in
  let survived, records =
    with_ledger (fun () -> campaign_json ~jobs:2 ~chaos tiny_plan)
  in
  if Sys.file_exists marker then Sys.remove marker;
  Alcotest.(check string) "kill is invisible in the report" expected survived;
  let count ev =
    List.length
      (List.filter
         (function Tel.Worker { ev = e; _ } -> e = ev | _ -> false)
         records)
  in
  Alcotest.(check int) "one death ledgered" 1 (count "died");
  Alcotest.(check int) "the lost shard was re-queued" 1 (count "requeue");
  Alcotest.(check bool) "a replacement was spawned" true (count "spawn" >= 3);
  Alcotest.(check bool) "respawn is marked as such" true
    (List.exists
       (function
         | Tel.Worker { ev = "spawn"; args; _ } ->
             List.mem_assoc "respawn" args
         | _ -> false)
       records)

(* --- progress sinks -------------------------------------------- *)

let sink_output sink_of_oc events =
  let path = Filename.temp_file "progress" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let sink = sink_of_oc oc in
      List.iter sink events;
      close_out oc;
      In_channel.with_open_bin path In_channel.input_all)

let demo_events =
  [
    Progress.Campaign_started { cells = 1; trials = 10 };
    Progress.Worker_state { pid = 123; state = Progress.W_busy; task = 0 };
    Progress.Shard_done
      {
        cell = "journal/swapram/uniform";
        shard = 0;
        shards = 2;
        trials_done = 5;
        trials = 10;
        cached = false;
      };
    Progress.Units_done { label = "sweep"; finished = 3; total = 3 };
    Progress.Campaign_done { cells = 1; trials = 10; seconds = 0.5 };
  ]

let plain_sink_has_no_ansi () =
  let out = sink_output (fun oc -> Progress.plain oc) demo_events in
  Alcotest.(check bool) "no escape bytes" false (String.contains out '\x1b');
  Alcotest.(check bool) "milestones printed" true (String.length out > 0)

let dashboard_sink_redraws_with_ansi () =
  let out = sink_output (fun oc -> Progress.dashboard oc) demo_events in
  Alcotest.(check bool) "uses ANSI redraw" true (String.contains out '\x1b')

let auto_sink_picks_plain_off_tty () =
  (* a regular file is not a TTY, so auto must not emit escapes *)
  let out = sink_output (fun oc -> Progress.auto oc) demo_events in
  Alcotest.(check bool) "no escape bytes" false (String.contains out '\x1b')

let suite =
  [
    QCheck_alcotest.to_alcotest prop_record_roundtrip;
    Alcotest.test_case "read_file drops a torn tail only" `Quick
      read_file_drops_torn_tail;
    Alcotest.test_case "parallel ledger has per-worker tracks" `Slow
      parallel_ledger_has_worker_tracks;
    Alcotest.test_case "campaign unperturbed by telemetry" `Slow
      campaign_unperturbed_by_telemetry;
    Alcotest.test_case "report unperturbed by telemetry" `Slow
      report_unperturbed_by_telemetry;
    Alcotest.test_case "chaos kill is ledgered" `Slow chaos_kill_is_ledgered;
    Alcotest.test_case "plain sink has no ANSI" `Quick plain_sink_has_no_ansi;
    Alcotest.test_case "dashboard sink redraws with ANSI" `Quick
      dashboard_sink_redraws_with_ansi;
    Alcotest.test_case "auto picks plain off a TTY" `Quick
      auto_sink_picks_plain_off_tty;
    Alcotest.test_case "report executes each cell once" `Slow
      report_executes_each_cell_once;
  ]
