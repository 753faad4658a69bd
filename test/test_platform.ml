(* Platform model unit tests: hardware read cache, wait states,
   contention, energy model, memory faults. *)

module Memory = Msp430.Memory
module Hwcache = Msp430.Hwcache
module Trace = Msp430.Trace
module Energy = Msp430.Energy
module Platform = Msp430.Platform

let make_memory ?(wait_states = 3) () =
  let stats = Trace.create () in
  let mem =
    Memory.create ~wait_states ~map:Platform.fr2355_map ~stats ()
  in
  (mem, stats)

(* Reference model for the hardware read cache: the generic
   set-associative implementation with the geometry as parameters
   (ways, lines, line size), in the FR2355's configuration. The
   fixed-geometry {!Hwcache} must answer every probe as it does. *)
module Model_cache = struct
  type t = {
    ways : int;
    sets : int;
    line_bytes : int;
    tags : int array array; (* [set].(way) = tag, -1 when invalid *)
    lru : int array; (* [set] = way that is least recently used *)
  }

  let create ?(ways = 2) ?(lines = 4) ?(line_bytes = 8) () =
    let sets = lines / ways in
    {
      ways;
      sets;
      line_bytes;
      tags = Array.init sets (fun _ -> Array.make ways (-1));
      lru = Array.make sets 0;
    }

  let locate t addr =
    let line = addr / t.line_bytes in
    (line mod t.sets, line / t.sets)

  let find t set tag =
    let rec go way =
      if way >= t.ways then -1
      else if t.tags.(set).(way) = tag then way
      else go (way + 1)
    in
    go 0

  let read t addr =
    let set, tag = locate t addr in
    let way = find t set tag in
    if way >= 0 then begin
      t.lru.(set) <- 1 - way;
      true
    end
    else begin
      let victim = t.lru.(set) in
      t.tags.(set).(victim) <- tag;
      t.lru.(set) <- 1 - victim;
      false
    end

  let write t addr =
    let set, tag = locate t addr in
    let way = find t set tag in
    if way >= 0 then t.tags.(set).(way) <- -1

  let flush t =
    Array.iter (fun ways -> Array.fill ways 0 t.ways (-1)) t.tags;
    Array.fill t.lru 0 t.sets 0
end

type cache_op = Read of int | Write_byte of int | Write_word of int | Flush

let pp_cache_op = function
  | Read a -> Printf.sprintf "read 0x%04X" a
  | Write_byte a -> Printf.sprintf "write.b 0x%04X" a
  | Write_word a -> Printf.sprintf "write.w 0x%04X" a
  | Flush -> "flush"

(* Mostly a 128-byte window, so lines collide in both sets and get
   evicted and invalidated; sometimes anywhere in the address space. *)
let gen_cache_op =
  QCheck2.Gen.(
    let addr =
      frequency
        [ (6, map (fun o -> 0x4000 + o) (int_bound 127)); (1, int_bound 0xFFFF) ]
    in
    frequency
      [
        (8, map (fun a -> Read a) addr);
        (2, map (fun a -> Write_byte a) addr);
        (2, map (fun a -> Write_word (a land lnot 1)) addr);
        (1, return Flush);
      ])

(* A word write is one [Hwcache.write]: its two bytes share a line.
   The model invalidates both bytes, as the memory system once did. *)
let prop_hwcache_matches_model =
  QCheck2.Test.make ~count:500 ~name:"hwcache answers as the generic model"
    ~print:(fun ops -> String.concat "; " (List.map pp_cache_op ops))
    QCheck2.Gen.(list_size (int_range 1 200) gen_cache_op)
    (fun ops ->
      let c = Hwcache.create () and m = Model_cache.create () in
      List.for_all
        (function
          | Read a -> Hwcache.read c a = Model_cache.read m a
          | Write_byte a ->
              Hwcache.write c a;
              Model_cache.write m a;
              true
          | Write_word a ->
              Hwcache.write c a;
              Model_cache.write m a;
              Model_cache.write m (a + 1);
              true
          | Flush ->
              Hwcache.flush c;
              Model_cache.flush m;
              true)
        ops)

(* Every build of crc, on every placement and caching system, puts
   the data section at its region's base, or packed at the first even
   address two or more bytes past the code; and its data size is the
   plain program's, whatever the runtime adds to the code. *)
let data_placement_test () =
  let module T = Experiments.Toolchain in
  let module A = Masm.Assembler in
  let bench = Workloads.Suite.crc in
  let program =
    Minic.Driver.program_of_source (bench.Workloads.Bench_def.source 1)
  in
  let plain_data = A.data_size (A.assemble program) in
  Alcotest.(check int) "data size without assembly" plain_data
    (A.data_section_size program);
  List.iter
    (fun placement ->
      List.iter
        (fun caching ->
          let config = { (T.default_config bench) with T.placement; caching } in
          let what =
            Printf.sprintf "%s, %s" (T.placement_name placement)
              (T.caching_name caching)
          in
          match T.prepare config with
          | Error e -> Alcotest.failf "%s: %s" what e
          | Ok p ->
              let image = p.T.p_image in
              let expected =
                match T.built_placement config with
                | T.Standard | T.Split -> Platform.sram_base
                | T.Code_sram -> Platform.fram_base + 0x400
                | T.Unified | T.All_sram ->
                    (image.A.code_end + 3) land lnot 1
              in
              Alcotest.(check int) (what ^ ": data base") expected
                image.A.data_base;
              Alcotest.(check int)
                (what ^ ": data bytes")
                plain_data (T.collect p).T.sizes.T.data_bytes)
        T.
          [
            Baseline;
            Swapram_cache Swapram.Config.default_options;
            Block_cache Blockcache.Config.default_options;
            Checkpoint_runtime Swapram.Checkpoint.default_options;
          ])
    Experiments.Toolchain.placements

let suite =
  [
    Alcotest.test_case "hwcache: sequential reads hit after fill" `Quick
      (fun () ->
        let c = Hwcache.create () in
        Alcotest.(check bool) "first miss" false (Hwcache.read c 0x4000);
        Alcotest.(check bool) "same line hits" true (Hwcache.read c 0x4002);
        Alcotest.(check bool) "same line hits" true (Hwcache.read c 0x4006);
        Alcotest.(check bool) "next line misses" false (Hwcache.read c 0x4008));
    Alcotest.test_case "hwcache: two ways per set" `Quick (fun () ->
        let c = Hwcache.create () in
        (* same set (line stride = sets * line_bytes = 16) *)
        ignore (Hwcache.read c 0x4000);
        ignore (Hwcache.read c 0x4010);
        Alcotest.(check bool) "both resident" true (Hwcache.read c 0x4000);
        Alcotest.(check bool) "both resident" true (Hwcache.read c 0x4010);
        (* third line in the set evicts the LRU way *)
        ignore (Hwcache.read c 0x4020);
        let hit_a = Hwcache.read c 0x4000 in
        let hit_b = Hwcache.read c 0x4010 in
        Alcotest.(check bool) "one of the two evicted" true
          (not (hit_a && hit_b)));
    Alcotest.test_case "hwcache: write invalidates" `Quick (fun () ->
        let c = Hwcache.create () in
        ignore (Hwcache.read c 0x4000);
        Alcotest.(check bool) "hit" true (Hwcache.read c 0x4000);
        Hwcache.write c 0x4000;
        Alcotest.(check bool) "invalidated" false (Hwcache.read c 0x4000));
    Alcotest.test_case "fram read miss costs wait states" `Quick (fun () ->
        let mem, stats = make_memory () in
        Memory.begin_instruction mem;
        ignore (Memory.read_word mem ~purpose:Memory.Data 0x4000);
        Alcotest.(check int) "3 stalls" 3 stats.Trace.stall_cycles;
        Memory.begin_instruction mem;
        ignore (Memory.read_word mem ~purpose:Memory.Data 0x4002);
        Alcotest.(check int) "hit adds none" 3 stats.Trace.stall_cycles);
    Alcotest.test_case "second fram access in an instruction pays contention"
      `Quick (fun () ->
        let mem, stats = make_memory ~wait_states:0 () in
        Memory.begin_instruction mem;
        ignore (Memory.read_word mem ~purpose:Memory.Ifetch 0x4000);
        ignore (Memory.read_word mem ~purpose:Memory.Data 0x5000);
        Alcotest.(check int) "one contention stall" 1 stats.Trace.stall_cycles);
    Alcotest.test_case "sram access is free of stalls" `Quick (fun () ->
        let mem, stats = make_memory () in
        Memory.begin_instruction mem;
        ignore (Memory.read_word mem ~purpose:Memory.Data 0x2000);
        Memory.write_word mem 0x2002 42;
        Alcotest.(check int) "no stalls" 0 stats.Trace.stall_cycles;
        Alcotest.(check int) "counted" 2 (Trace.sram_accesses stats));
    Alcotest.test_case "fram write always pays wait states" `Quick (fun () ->
        let mem, stats = make_memory () in
        Memory.begin_instruction mem;
        ignore (Memory.read_word mem ~purpose:Memory.Data 0x4000);
        Memory.begin_instruction mem;
        Memory.write_word mem 0x4000 1;
        (* 3 (read miss) + 3 (write) *)
        Alcotest.(check int) "write stalls" 6 stats.Trace.stall_cycles);
    Alcotest.test_case "unaligned word access faults" `Quick (fun () ->
        let mem, _ = make_memory () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Memory.read_word mem ~purpose:Memory.Data 0x4001);
             false
           with Memory.Fault _ -> true));
    Alcotest.test_case "unmapped access faults" `Quick (fun () ->
        let mem, _ = make_memory () in
        Alcotest.(check bool) "raises" true
          (try
             Memory.write_word mem 0x0000 1;
             false
           with Memory.Fault _ -> true));
    Alcotest.test_case "energy: fram-heavy run costs more" `Quick (fun () ->
        let fram_stats = Trace.create () in
        fram_stats.Trace.unstalled_cycles <- 1000;
        fram_stats.Trace.fram_ifetch <- 800;
        let sram_stats = Trace.create () in
        sram_stats.Trace.unstalled_cycles <- 1000;
        sram_stats.Trace.sram_ifetch <- 800;
        let e_fram = Energy.evaluate Energy.point_24mhz fram_stats in
        let e_sram = Energy.evaluate Energy.point_24mhz sram_stats in
        Alcotest.(check bool) "fram > sram" true
          (e_fram.Energy.energy_nj > e_sram.Energy.energy_nj));
    Alcotest.test_case "energy: 24MHz is more efficient per cycle" `Quick
      (fun () ->
        Alcotest.(check bool) "core energy" true
          (Energy.point_24mhz.Energy.core_nj_per_cycle
          < Energy.point_8mhz.Energy.core_nj_per_cycle));
    Alcotest.test_case "cache-hit energy close to sram" `Quick (fun () ->
        let p = Energy.point_24mhz in
        Alcotest.(check bool) "ordering" true
          (p.Energy.fram_read_hit_nj < p.Energy.fram_read_miss_nj /. 4.0));
    QCheck_alcotest.to_alcotest prop_hwcache_matches_model;
    Alcotest.test_case "toolchain: data section placed as the region plan says"
      `Quick data_placement_test;
  ]
