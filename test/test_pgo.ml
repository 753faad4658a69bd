(* Profile-guided placement tests: deterministic placement and profile
   JSON round-trips, Cache pinned regions, the documented Cost_aware
   tie-break (toward the FIFO allocation point), equivalence of the
   sorted-entry overlap walks with a naive reference implementation
   for all three policies, and an end-to-end train -> rebuild ->
   measure run that must not be slower than the default build. *)

module Cache = Swapram.Cache
module Pgo = Swapram.Pgo
module Trace = Msp430.Trace
module Toolchain = Experiments.Toolchain

(* --- Pgo.place -------------------------------------------------------- *)

let fp name ~size ~calls ~misses ~instrs ~cycles =
  {
    Pgo.fp_name = name;
    fp_size = size;
    fp_calls = calls;
    fp_misses = misses;
    fp_instrs = instrs;
    fp_cycles = cycles;
  }

let fixture_profile =
  {
    Pgo.pr_benchmark = "fixture";
    pr_cache_size = 2048;
    pr_funcs =
      [
        fp "hot_small" ~size:120 ~calls:4000 ~misses:60 ~instrs:900_000
          ~cycles:2_000_000;
        fp "hot_large" ~size:700 ~calls:900 ~misses:40 ~instrs:500_000
          ~cycles:1_200_000;
        fp "warm" ~size:300 ~calls:150 ~misses:12 ~instrs:80_000
          ~cycles:200_000;
        fp "cold_thrash" ~size:400 ~calls:3 ~misses:3 ~instrs:90
          ~cycles:600;
        fp "never_called" ~size:200 ~calls:0 ~misses:0 ~instrs:0 ~cycles:0;
        fp "widest" ~size:900 ~calls:20 ~misses:2 ~instrs:40_000
          ~cycles:100_000;
      ];
  }

let test_place_deterministic () =
  let a = Pgo.place fixture_profile in
  let b = Pgo.place fixture_profile in
  Alcotest.(check bool) "structurally equal" true (a = b);
  Alcotest.(check string)
    "byte-identical serialization"
    (Pgo.placement_to_string a)
    (Pgo.placement_to_string b)

let test_place_partitions () =
  let p = Pgo.place fixture_profile in
  let all =
    List.map (fun f -> f.Pgo.fp_name) fixture_profile.Pgo.pr_funcs
  in
  List.iter
    (fun name ->
      let buckets =
        (if List.mem name p.Pgo.pl_pinned then 1 else 0)
        + (if List.mem name p.Pgo.pl_hot_order then 1 else 0)
        + if List.mem name p.Pgo.pl_fram_resident then 1 else 0
      in
      Alcotest.(check int) (name ^ " in exactly one bucket") 1 buckets)
    all;
  Alcotest.(check bool)
    "never-called code stays FRAM-resident" true
    (List.mem "never_called" p.Pgo.pl_fram_resident);
  Alcotest.(check bool)
    "thrashing cold code stays FRAM-resident" true
    (List.mem "cold_thrash" p.Pgo.pl_fram_resident);
  Alcotest.(check bool)
    "the hottest function is pinned" true
    (List.mem "hot_small" p.Pgo.pl_pinned);
  (* budget: default is half the cache *)
  let even b = (b + 1) land lnot 1 in
  let size_of name =
    let f =
      List.find (fun f -> f.Pgo.fp_name = name) fixture_profile.Pgo.pr_funcs
    in
    even f.Pgo.fp_size
  in
  let pinned_bytes =
    List.fold_left (fun acc n -> acc + size_of n) 0 p.Pgo.pl_pinned
  in
  Alcotest.(check bool)
    "pinned bytes within budget" true
    (pinned_bytes <= p.Pgo.pl_budget);
  Alcotest.(check int) "default budget is half the cache" 1024 p.Pgo.pl_budget;
  (* the dynamic region must still hold the widest unpinned function *)
  let widest_unpinned =
    List.fold_left
      (fun m f ->
        if
          List.mem f.Pgo.fp_name p.Pgo.pl_pinned
          || List.mem f.Pgo.fp_name p.Pgo.pl_fram_resident
        then m
        else max m (even f.Pgo.fp_size))
      0 fixture_profile.Pgo.pr_funcs
  in
  Alcotest.(check bool)
    "dynamic region fits the widest unpinned function" true
    (fixture_profile.Pgo.pr_cache_size - pinned_bytes >= widest_unpinned)

let test_profile_roundtrip () =
  let s = Pgo.profile_to_string fixture_profile in
  match Pgo.profile_of_string s with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check bool) "profile round-trips" true (p = fixture_profile);
      Alcotest.(check string)
        "re-serialization byte-identical" s (Pgo.profile_to_string p)

let test_placement_json_roundtrip () =
  let p = Pgo.place fixture_profile in
  match Pgo.placement_of_json (Pgo.placement_to_json p) with
  | Error e -> Alcotest.fail e
  | Ok p' -> Alcotest.(check bool) "placement round-trips" true (p = p')

(* --- Cache: pinned regions -------------------------------------------- *)

let test_pin_basic () =
  let c = Cache.create ~base:0x2000 ~capacity:1024 ~policy:Cache.Circular_queue in
  let a0 = Cache.pin c ~fid:0 ~size:101 (* rounds to 102 *) in
  let a1 = Cache.pin c ~fid:1 ~size:50 in
  Alcotest.(check int) "first pin at base" 0x2000 a0;
  Alcotest.(check int) "second pin packed" (0x2000 + 102) a1;
  Alcotest.(check int) "pin is idempotent" a0 (Cache.pin c ~fid:0 ~size:101);
  Alcotest.(check int) "pinned bytes" 152 (Cache.pinned_bytes c);
  Alcotest.(check bool) "invariants" true (Cache.check_invariants c);
  (* a function the dynamic remainder can't hold is Too_large *)
  (match Cache.plan c ~size:(1024 - 152 + 2) with
  | Cache.Too_large -> ()
  | Cache.Place _ -> Alcotest.fail "planned over the pinned region");
  (* dynamic placements start above the pinned prefix *)
  (match Cache.plan c ~size:200 with
  | Cache.Place { addr; evict = [] } ->
      Alcotest.(check int) "first dynamic placement" (0x2000 + 152) addr;
      Cache.commit c ~fid:7 ~addr ~size:200 ~evicted:[]
  | _ -> Alcotest.fail "expected an eviction-free placement");
  Alcotest.(check bool) "invariants after commit" true (Cache.check_invariants c);
  (* lookup covers pinned and dynamic entries *)
  Alcotest.(check bool) "find pinned" true (Cache.find c 1 <> None);
  Alcotest.(check bool) "find dynamic" true (Cache.find c 7 <> None);
  (* power loss: dynamic entries are gone, pins survive *)
  Cache.reset c;
  Alcotest.(check int) "reset drops dynamic entries" 0
    (List.length (Cache.entries c));
  Alcotest.(check int) "reset keeps pins" 2
    (List.length (Cache.pinned_entries c));
  Alcotest.(check int) "alloc point back to the dynamic base"
    (0x2000 + 152) (Cache.alloc_point c)

let test_pin_overflow () =
  let c = Cache.create ~base:0 ~capacity:256 ~policy:Cache.Circular_queue in
  match Cache.pin c ~fid:0 ~size:300 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "oversized pin must raise"

(* --- Cost_aware tie-breaking ------------------------------------------ *)

(* Two equal-cost (zero-eviction) gaps: the tie must break toward the
   FIFO allocation point, and toward the lowest address once the
   allocation point is not viable. *)
let test_cost_aware_tiebreak () =
  let c = Cache.create ~base:0 ~capacity:1024 ~policy:Cache.Cost_aware in
  Cache.commit c ~fid:0 ~addr:0 ~size:256 ~evicted:[];
  Cache.commit c ~fid:1 ~addr:256 ~size:256 ~evicted:[];
  Cache.commit c ~fid:2 ~addr:512 ~size:256 ~evicted:[];
  Cache.evict_only c [ 1 ];
  (* gaps: [256,512) and [768,1024); next_free = 768 *)
  Alcotest.(check int) "allocation point" 768 (Cache.alloc_point c);
  (match Cache.plan c ~size:256 with
  | Cache.Place { addr; evict = [] } ->
      Alcotest.(check int) "tie breaks toward the allocation point" 768 addr
  | _ -> Alcotest.fail "expected an eviction-free placement");
  (* with the allocation point out of play, lowest address wins *)
  Cache.set_alloc_point c 1024;
  match Cache.plan c ~size:256 with
  | Cache.Place { addr; evict = [] } ->
      Alcotest.(check int) "then lowest address" 256 addr
  | _ -> Alcotest.fail "expected an eviction-free placement"

(* --- Optimized walks vs naive reference, all three policies ----------- *)

(* Reference model: entries kept in *insertion* order (as the original
   implementation did), overlap sets computed with plain List.filter,
   the Stack popping most-recently-inserted first. The optimized
   sorted-entry implementation must plan the same placements. *)
type shadow = {
  mutable sh_entries : (int * int * int) list; (* fid, addr, size; insertion order *)
  mutable sh_nf : int;
}

let sh_overlaps lo hi (_, a, s) = lo < a + s && a < hi

type ref_placement = R_too_large | R_place of int * (int * int * int) list

let ref_plan policy sh ~alloc_base ~limit size =
  let size = (size + 1) land lnot 1 in
  if size > limit - alloc_base then R_too_large
  else
    match policy with
    | Cache.Circular_queue ->
        let addr = if sh.sh_nf + size > limit then alloc_base else sh.sh_nf in
        R_place (addr, List.filter (sh_overlaps addr (addr + size)) sh.sh_entries)
    | Cache.Cost_aware ->
        let candidates =
          alloc_base :: sh.sh_nf
          :: List.map (fun (_, a, s) -> a + s) sh.sh_entries
        in
        let best =
          List.fold_left
            (fun acc c ->
              if c < alloc_base || c + size > limit then acc
              else
                let cost =
                  List.fold_left
                    (fun t ((_, _, s) as e) ->
                      if sh_overlaps c (c + size) e then t + s else t)
                    0 sh.sh_entries
                in
                match acc with
                | None -> Some (c, cost)
                | Some (bc, bcost) ->
                    if
                      cost < bcost
                      || cost = bcost
                         && (c = sh.sh_nf && bc <> sh.sh_nf
                            || (bc <> sh.sh_nf && c < bc))
                    then Some (c, cost)
                    else acc)
            None candidates
        in
        (match best with
        | None -> R_too_large
        | Some (addr, _) ->
            R_place
              (addr, List.filter (sh_overlaps addr (addr + size)) sh.sh_entries))
    | Cache.Stack ->
        let top l =
          List.fold_left (fun t (_, a, s) -> max t (a + s)) alloc_base l
        in
        if top sh.sh_entries + size <= limit then R_place (top sh.sh_entries, [])
        else
          (* pop most-recently-inserted until the new function fits *)
          let rec pop evicted remaining =
            match List.rev remaining with
            | [] -> (alloc_base, evicted)
            | last :: _ ->
                let below =
                  List.filter (fun e -> e <> last) remaining
                in
                if top below + size <= limit then (top below, last :: evicted)
                else pop (last :: evicted) below
          in
          let addr, evicted = pop [] sh.sh_entries in
          R_place (addr, evicted)

let sh_commit policy sh ~fid ~addr ~size ~evicted =
  let size = (size + 1) land lnot 1 in
  let gone = List.map (fun (f, _, _) -> f) evicted in
  sh.sh_entries <-
    List.filter (fun (f, _, _) -> not (List.mem f gone)) sh.sh_entries
    @ [ (fid, addr, size) ];
  match policy with
  | Cache.Circular_queue | Cache.Cost_aware -> sh.sh_nf <- addr + size
  | Cache.Stack -> ()

let fid_set l = List.sort compare l

let prop_matches_reference policy policy_name =
  QCheck2.Test.make ~count:200
    ~name:(Printf.sprintf "%s placements match naive reference" policy_name)
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 2) (int_range 20 200))
        (list_size (int_range 1 60) (int_range 2 1100)))
    (fun (pin_sizes, sizes) ->
      let base = 0x2000 and capacity = 1024 in
      let c = Cache.create ~base ~capacity ~policy in
      List.iteri (fun i size -> ignore (Cache.pin c ~fid:(1000 + i) ~size)) pin_sizes;
      let alloc_base = base + Cache.pinned_bytes c in
      let limit = base + capacity in
      let sh = { sh_entries = []; sh_nf = alloc_base } in
      List.iteri
        (fun i size ->
          let expected = ref_plan policy sh ~alloc_base ~limit size in
          match (Cache.plan c ~size, expected) with
          | Cache.Too_large, R_too_large -> ()
          | Cache.Too_large, R_place (a, _) ->
              QCheck2.Test.fail_reportf
                "op %d size %d: got Too_large, reference places at 0x%04X" i
                size a
          | Cache.Place { addr; _ }, R_too_large ->
              QCheck2.Test.fail_reportf
                "op %d size %d: placed at 0x%04X, reference says Too_large" i
                size addr
          | Cache.Place { addr; evict }, R_place (r_addr, r_evict) ->
              if addr <> r_addr then
                QCheck2.Test.fail_reportf
                  "op %d size %d: placed at 0x%04X, reference at 0x%04X" i size
                  addr r_addr;
              let got = fid_set (List.map (fun e -> e.Cache.fid) evict) in
              let want = fid_set (List.map (fun (f, _, _) -> f) r_evict) in
              if got <> want then
                QCheck2.Test.fail_reportf "op %d size %d: eviction sets differ"
                  i size;
              if addr < alloc_base then
                QCheck2.Test.fail_reportf
                  "op %d: placement 0x%04X inside the pinned region" i addr;
              Cache.commit c ~fid:i ~addr ~size ~evicted:evict;
              sh_commit policy sh ~fid:i ~addr ~size ~evicted:r_evict;
              if not (Cache.check_invariants c) then
                QCheck2.Test.fail_reportf "op %d: invariants violated" i)
        sizes;
      true)

(* --- End-to-end: train -> rebuild -> measure --------------------------- *)

let bench name =
  List.find (fun b -> b.Workloads.Bench_def.name = name) Workloads.Suite.all

let swapram_config name =
  {
    (Toolchain.default_config (bench name)) with
    Toolchain.caching = Toolchain.Swapram_cache Swapram.Config.default_options;
  }

let test_pgo_end_to_end () =
  let config = swapram_config "rc4" in
  match Toolchain.run_pgo config with
  | Error e -> Alcotest.fail e
  | Ok r -> (
      match r.Toolchain.pg_measured with
      | Toolchain.Completed m ->
          let train = r.Toolchain.pg_train in
          Alcotest.(check string)
            "uart output identical" train.Toolchain.uart m.Toolchain.uart;
          let tc = Trace.total_cycles train.Toolchain.stats in
          let mc = Trace.total_cycles m.Toolchain.stats in
          if mc > tc then
            Alcotest.failf "pgo build slower than default: %d > %d cycles" mc tc;
          let stats = Option.get m.Toolchain.swapram_stats in
          Alcotest.(check bool)
            "pinned functions were installed" true
            (stats.Swapram.Runtime.pins
            = List.length r.Toolchain.pg_placement.Pgo.pl_pinned)
      | Toolchain.Crashed o ->
          Alcotest.fail ("pgo run crashed: " ^ Msp430.Cpu.outcome_name o)
      | Toolchain.Did_not_fit msg -> Alcotest.fail ("pgo run DNF: " ^ msg))

(* Same seed, two complete train->place pipelines: the placements (and
   their serializations) must be byte-identical. *)
let test_pgo_pipeline_deterministic () =
  let once () =
    match Toolchain.run_pgo (swapram_config "crc") with
    | Error e -> Alcotest.fail e
    | Ok r -> r.Toolchain.pg_placement
  in
  let a = once () and b = once () in
  Alcotest.(check string)
    "byte-identical placements across runs"
    (Pgo.placement_to_string a)
    (Pgo.placement_to_string b)

(* An observed sweep's SwapRAM cell is a run of the training
   configuration with the profiler attached, so [Sweep.compute_pgo]
   trains on it: the profile, placement and measured run must equal
   [run_pgo]'s own training run on the same configuration. *)
let test_pgo_from_observed_sweep () =
  let frequency = Msp430.Platform.Mhz24 in
  let sweep =
    Experiments.Sweep.compute
      ~benchmarks:(List.map bench [ "crc"; "rc4"; "aes"; "bitcount"; "rsa" ])
      ~observe:Toolchain.metrics_observe ~frequency ()
  in
  let measured (r : Toolchain.pgo_result) =
    match r.Toolchain.pg_measured with
    | Toolchain.Completed m ->
        (Trace.total_cycles m.Toolchain.stats, m.Toolchain.uart)
    | _ -> Alcotest.fail "measured pgo run did not complete"
  in
  List.iter2
    (fun (e : Experiments.Sweep.entry) (p : Experiments.Sweep.pgo_entry) ->
      let name = e.Experiments.Sweep.benchmark.Workloads.Bench_def.name in
      match (p.Experiments.Sweep.pgo, Toolchain.run_pgo (swapram_config name)) with
      | Ok s, Ok r ->
          (match e.Experiments.Sweep.swapram with
          | Toolchain.Completed cell ->
              Alcotest.(check bool)
                (name ^ ": trained on the sweep cell")
                true (s.Toolchain.pg_train == cell)
          | _ -> Alcotest.fail (name ^ ": swapram cell did not complete"));
          Alcotest.(check bool)
            (name ^ ": profile") true
            (s.Toolchain.pg_profile = r.Toolchain.pg_profile);
          Alcotest.(check string)
            (name ^ ": placement")
            (Pgo.placement_to_string r.Toolchain.pg_placement)
            (Pgo.placement_to_string s.Toolchain.pg_placement);
          Alcotest.(check (pair int string))
            (name ^ ": measured cycles and uart")
            (measured r) (measured s)
      | Error e, _ | _, Error e -> Alcotest.fail (name ^ ": " ^ e))
    sweep
    (Experiments.Sweep.compute_pgo ~frequency sweep)

let suite =
  [
    Alcotest.test_case "place: deterministic" `Quick test_place_deterministic;
    Alcotest.test_case "place: partitions and budget" `Quick
      test_place_partitions;
    Alcotest.test_case "profile json round-trip" `Quick test_profile_roundtrip;
    Alcotest.test_case "placement json round-trip" `Quick
      test_placement_json_roundtrip;
    Alcotest.test_case "cache: pinned regions" `Quick test_pin_basic;
    Alcotest.test_case "cache: oversized pin" `Quick test_pin_overflow;
    Alcotest.test_case "cost-aware tie-break" `Quick test_cost_aware_tiebreak;
    QCheck_alcotest.to_alcotest
      (prop_matches_reference Cache.Circular_queue "circular-queue");
    QCheck_alcotest.to_alcotest (prop_matches_reference Cache.Stack "stack");
    QCheck_alcotest.to_alcotest
      (prop_matches_reference Cache.Cost_aware "cost-aware");
    Alcotest.test_case "end-to-end: rc4 pgo no slower" `Slow
      test_pgo_end_to_end;
    Alcotest.test_case "end-to-end: crc placement deterministic" `Slow
      test_pgo_pipeline_deterministic;
    Alcotest.test_case "observed sweep cell trains like run_pgo" `Slow
      test_pgo_from_observed_sweep;
  ]
