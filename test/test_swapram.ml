(* SwapRAM runtime tests: semantic transparency (paper §5.1), caching
   behaviour, eviction, call-stack integrity, branch relocation,
   blacklisting, and cache-structure invariants. *)

module Isa = Msp430.Isa
module Cpu = Msp430.Cpu
module Memory = Msp430.Memory
module Platform = Msp430.Platform

let fram_stack_top = Platform.fram_base + Platform.fram_size (* 0xC000 *)

type run = {
  r12 : int;
  uart : string;
  data : string; (* final contents of the application data segment *)
  stats : Msp430.Trace.t;
  sr_stats : Swapram.Runtime.stats option;
  cache_entries : Swapram.Cache.entry list;
}

let data_snapshot system ~lo ~hi =
  String.init (hi - lo) (fun i ->
      Char.chr (Memory.peek_byte system.Platform.memory (lo + i)))

(* Unified-memory baseline: code and data in FRAM, stack at FRAM top. *)
let run_baseline source =
  let program = Minic.Driver.program_of_source source in
  let image = Masm.Assembler.assemble program in
  let system = Platform.create Platform.Mhz24 in
  Masm.Assembler.load image system.Platform.memory;
  Cpu.set_reg system.Platform.cpu Isa.sp fram_stack_top;
  Cpu.set_reg system.Platform.cpu Isa.pc
    (Masm.Assembler.lookup image Minic.Driver.entry_name);
  (match Cpu.run ~fuel:30_000_000 system.Platform.cpu with
  | Cpu.Halted -> ()
  | o -> Alcotest.fail ("baseline did not halt: " ^ Cpu.outcome_name o));
  let data_end = image.Masm.Assembler.data_end in
  {
    r12 = Cpu.reg system.Platform.cpu 12;
    uart = Memory.uart_output system.Platform.memory;
    data =
      data_snapshot system ~lo:image.Masm.Assembler.data_base
        ~hi:data_end;
    stats = Cpu.stats system.Platform.cpu;
    sr_stats = None;
    cache_entries = [];
  }

let run_swapram ?(options = Swapram.Config.default_options) source =
  let program = Minic.Driver.program_of_source source in
  let built = Swapram.Pipeline.build ~options program in
  let system = Platform.create Platform.Mhz24 in
  let runtime = Swapram.Pipeline.install built system in
  Cpu.set_reg system.Platform.cpu Isa.sp fram_stack_top;
  Cpu.set_reg system.Platform.cpu Isa.pc
    (Masm.Assembler.lookup built.Swapram.Pipeline.image Minic.Driver.entry_name);
  (match Cpu.run ~fuel:30_000_000 system.Platform.cpu with
  | Cpu.Halted -> ()
  | o -> Alcotest.fail ("swapram run did not halt: " ^ Cpu.outcome_name o));
  (* cache metadata lives in the text segment (FRAM), so the whole
     data segment is application data *)
  let app_data_end = built.Swapram.Pipeline.image.Masm.Assembler.data_end in
  ( {
      r12 = Cpu.reg system.Platform.cpu 12;
      uart = Memory.uart_output system.Platform.memory;
      data =
        data_snapshot system
          ~lo:built.Swapram.Pipeline.image.Masm.Assembler.data_base
          ~hi:app_data_end;
      stats = Cpu.stats system.Platform.cpu;
      sr_stats = Some (Swapram.Runtime.stats runtime);
      cache_entries = Swapram.Cache.entries runtime.Swapram.Runtime.cache;
    },
    built )

let debug_options =
  { Swapram.Config.default_options with Swapram.Config.debug_checks = true }

(* §5.1 validation: output and final program memory state must match
   the baseline. *)
let check_equivalent name source =
  Alcotest.test_case ("transparent: " ^ name) `Quick (fun () ->
      let base = run_baseline source in
      let sr, _ = run_swapram ~options:debug_options source in
      Alcotest.(check int) "return value" base.r12 sr.r12;
      Alcotest.(check string) "uart output" base.uart sr.uart;
      let prefix = min (String.length base.data) (String.length sr.data) in
      Alcotest.(check string)
        "data segment"
        (String.sub base.data 0 prefix)
        (String.sub sr.data 0 prefix))

let program_sum_loop =
  "int acc[8]; \n\
   int add(int a, int b) { return a + b; } \n\
   int main(void) { int i; int s = 0; \n\
   for (i = 0; i < 100; i++) { s = add(s, i); acc[i % 8] = s; } \n\
   return s; }"

let program_recursion =
  "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); } \n\
   int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } \n\
   int main(void) { return fact(7) + fib(12) & 0x7FFF; }"

let program_strings =
  "char *msg = \"swapram\"; \n\
   int len(char *s) { int n = 0; while (s[n]) n++; return n; } \n\
   void emit(char *s) { int i; for (i = 0; s[i]; i++) putchar(s[i]); } \n\
   int main(void) { emit(msg); return len(msg); }"

let program_switch_mul =
  "int poly(int x, int k) { switch (k) { case 0: return 1; \n\
   case 1: return x; case 2: return x * x; default: return x * x * x; } } \n\
   int main(void) { int s = 0; int i; for (i = 0; i < 8; i++) \n\
   s += poly(i, i % 4); return s; }"

(* Many small functions calling each other: forces eviction traffic in
   a small cache. *)
let program_many_funcs =
  "int f1(int x) { return x + 1; } int f2(int x) { return x + 2; } \n\
   int f3(int x) { return x + 3; } int f4(int x) { return x + 4; } \n\
   int f5(int x) { return f1(x) + f2(x); } int f6(int x) { return f3(x) + f4(x); } \n\
   int main(void) { int s = 0; int i; for (i = 0; i < 20; i++) \n\
   { s += f5(i); s += f6(i); } return s & 0x7FFF; }"

(* A function big enough to contain out-of-range jumps, so its body
   carries relocatable absolute branches when cached. *)
let program_big_function =
  let body =
    String.concat "\n"
      (List.init 300 (fun i -> Printf.sprintf "s += %d; s ^= i;" (i land 15)))
  in
  Printf.sprintf
    "int big(int i) { int s = 0; if (i > 1) { %s } else { s = 7; } return s; }\n\
     int main(void) { int t = 0; int i; for (i = 0; i < 6; i++) t += big(i); \n\
     return t & 0x7FFF; }"
    body

let small_cache size =
  {
    debug_options with
    Swapram.Config.cache_size = size;
  }

let suite =
  [
    check_equivalent "sum loop" program_sum_loop;
    check_equivalent "recursion" program_recursion;
    check_equivalent "strings" program_strings;
    check_equivalent "switch+mul" program_switch_mul;
    check_equivalent "many functions" program_many_funcs;
    check_equivalent "big function with relocs" program_big_function;
    Alcotest.test_case "repeated calls miss once" `Quick (fun () ->
        let sr, _ = run_swapram ~options:debug_options program_sum_loop in
        let s = Option.get sr.sr_stats in
        (* _start->main, main->add (+ library/putchar-free program):
           each cached function misses exactly once — no eviction
           pressure in a 4 KiB cache. *)
        Alcotest.(check bool)
          "few misses" true
          (s.Swapram.Runtime.misses <= 6);
        Alcotest.(check int) "no aborts" 0 s.Swapram.Runtime.aborts);
    Alcotest.test_case "code executes from SRAM" `Quick (fun () ->
        let sr, _ = run_swapram ~options:debug_options program_sum_loop in
        let frac = Msp430.Trace.instr_fraction sr.stats Msp430.Trace.App_sram in
        Alcotest.(check bool)
          (Printf.sprintf "sram fraction %.2f > 0.8" frac)
          true (frac > 0.8));
    Alcotest.test_case "swapram reduces FRAM accesses" `Quick (fun () ->
        let base = run_baseline program_sum_loop in
        let sr, _ = run_swapram ~options:debug_options program_sum_loop in
        let b = Msp430.Trace.fram_accesses base.stats in
        let s = Msp430.Trace.fram_accesses sr.stats in
        Alcotest.(check bool)
          (Printf.sprintf "fram accesses %d < %d" s b)
          true
          (float_of_int s < 0.7 *. float_of_int b));
    Alcotest.test_case "eviction under small cache stays correct" `Quick
      (fun () ->
        (* blacklist main so the pinned-at-base entry is not on the
           call stack and wrap-around placements can actually evict *)
        let options =
          { (small_cache 128) with Swapram.Config.blacklist = [ "main" ] }
        in
        let base = run_baseline program_many_funcs in
        let sr, _ = run_swapram ~options program_many_funcs in
        Alcotest.(check int) "same result" base.r12 sr.r12;
        let s = Option.get sr.sr_stats in
        Alcotest.(check bool)
          "evictions happened" true
          (s.Swapram.Runtime.evictions > 0));
    Alcotest.test_case "placement skips past the active entry function" `Quick
      (fun () ->
        (* main is cached at the region base and stays active; wrapped
           placements must skip past it instead of aborting *)
        let base = run_baseline program_many_funcs in
        let sr, _ = run_swapram ~options:(small_cache 256) program_many_funcs in
        Alcotest.(check int) "same result" base.r12 sr.r12;
        let s = Option.get sr.sr_stats in
        Alcotest.(check bool)
          "retries happened" true
          (s.Swapram.Runtime.placement_retries > 0);
        Alcotest.(check bool)
          "evictions resumed" true
          (s.Swapram.Runtime.evictions > 0));
    Alcotest.test_case "abort when no placement avoids active code" `Quick
      (fun () ->
        (* cache barely larger than main: medium functions can never be
           placed, so they run from NVM on every call — the paper's
           pathological case (§3.3.3/§5.4) *)
        let base = run_baseline program_many_funcs in
        let sr, _ = run_swapram ~options:(small_cache 160) program_many_funcs in
        Alcotest.(check int) "same result" base.r12 sr.r12;
        let s = Option.get sr.sr_stats in
        Alcotest.(check bool)
          "aborts persist" true
          (s.Swapram.Runtime.aborts > 10));
    Alcotest.test_case "active functions never evicted (aborts occur)" `Quick
      (fun () ->
        let base = run_baseline program_recursion in
        let sr, _ = run_swapram ~options:(small_cache 96) program_recursion in
        Alcotest.(check int) "same result" base.r12 sr.r12;
        let s = Option.get sr.sr_stats in
        Alcotest.(check bool)
          "aborted caching operations" true
          (s.Swapram.Runtime.aborts > 0 || s.Swapram.Runtime.too_large > 0));
    Alcotest.test_case "relocatable branches generated and used" `Quick
      (fun () ->
        let base = run_baseline program_big_function in
        let sr, built = run_swapram ~options:debug_options program_big_function in
        Alcotest.(check int) "same result" base.r12 sr.r12;
        Alcotest.(check bool)
          "manifest has relocs" true
          (built.Swapram.Pipeline.manifest.Swapram.Instrument.num_relocs > 0));
    Alcotest.test_case "blacklisted function never cached" `Quick (fun () ->
        let options =
          { debug_options with Swapram.Config.blacklist = [ "add" ] }
        in
        let base = run_baseline program_sum_loop in
        let sr, built = run_swapram ~options program_sum_loop in
        Alcotest.(check int) "same result" base.r12 sr.r12;
        Alcotest.(check bool)
          "add has no fid" true
          (Swapram.Instrument.fid_of built.Swapram.Pipeline.manifest "add"
          = None);
        Alcotest.(check bool)
          "add not in cache" true
          (List.for_all
             (fun (e : Swapram.Cache.entry) ->
               built.Swapram.Pipeline.manifest.Swapram.Instrument.funcs.(e.Swapram.Cache.fid)
                 .Swapram.Instrument.fm_name
               <> "add")
             sr.cache_entries));
    Alcotest.test_case "cost-aware policy stays correct" `Quick (fun () ->
        let options =
          {
            (small_cache 256) with
            Swapram.Config.policy = Swapram.Cache.Cost_aware;
          }
        in
        let base = run_baseline program_many_funcs in
        let sr, _ = run_swapram ~options program_many_funcs in
        Alcotest.(check int) "same result" base.r12 sr.r12);
    Alcotest.test_case "prefetch caches callees ahead of calls" `Quick
      (fun () ->
        let options = { debug_options with Swapram.Config.prefetch = 2 } in
        let base = run_baseline program_many_funcs in
        let sr, _ = run_swapram ~options program_many_funcs in
        Alcotest.(check int) "same result" base.r12 sr.r12;
        let s = Option.get sr.sr_stats in
        Alcotest.(check bool)
          "prefetches happened" true
          (s.Swapram.Runtime.prefetches > 0);
        (* a prefetched function's first call is a hit, so misses drop *)
        let sr_off, _ = run_swapram ~options:debug_options program_many_funcs in
        let s_off = Option.get sr_off.sr_stats in
        Alcotest.(check bool)
          "fewer misses with prefetch" true
          (s.Swapram.Runtime.misses < s_off.Swapram.Runtime.misses));
    Alcotest.test_case "prefetch never evicts" `Quick (fun () ->
        (* tiny cache: prefetch must not disturb correctness or evict *)
        let options = { (small_cache 128) with Swapram.Config.prefetch = 2;
                        Swapram.Config.blacklist = [ "main" ] } in
        let base = run_baseline program_many_funcs in
        let sr, _ = run_swapram ~options program_many_funcs in
        Alcotest.(check int) "same result" base.r12 sr.r12);
    Alcotest.test_case "stack policy stays correct" `Quick (fun () ->
        let options =
          { (small_cache 256) with Swapram.Config.policy = Swapram.Cache.Stack }
        in
        let base = run_baseline program_many_funcs in
        let sr, _ = run_swapram ~options program_many_funcs in
        Alcotest.(check int) "same result" base.r12 sr.r12);
    Alcotest.test_case "freeze mode stays correct" `Quick (fun () ->
        let options =
          { (small_cache 96) with Swapram.Config.freeze = Some (2, 16) }
        in
        let base = run_baseline program_recursion in
        let sr, _ = run_swapram ~options program_recursion in
        Alcotest.(check int) "same result" base.r12 sr.r12);
    Alcotest.test_case "reboot survives SRAM loss" `Quick (fun () ->
        (* intermittent-computing support: after a power cycle the
           cache is gone but the FRAM metadata must be reset so that
           execution re-caches and still computes the same result *)
        let program = Minic.Driver.program_of_source program_sum_loop in
        let built = Swapram.Pipeline.build ~options:debug_options program in
        let image = built.Swapram.Pipeline.image in
        let system = Platform.create Platform.Mhz24 in
        let runtime = Swapram.Pipeline.install built system in
        let boot () =
          Cpu.set_reg system.Platform.cpu Isa.sp fram_stack_top;
          Cpu.set_reg system.Platform.cpu Isa.pc
            (Masm.Assembler.lookup image Minic.Driver.entry_name)
        in
        boot ();
        (* run a slice, then pull the plug *)
        (match Cpu.run ~fuel:5_000 system.Platform.cpu with
        | Cpu.Fuel_exhausted -> ()
        | Cpu.Halted -> Alcotest.fail "finished before the power failure"
        | o -> Alcotest.fail (Cpu.outcome_name o));
        for a = Platform.sram_base to Platform.sram_base + Platform.sram_size - 1
        do
          Memory.poke_byte system.Platform.memory a 0xAA
        done;
        Swapram.Runtime.reboot runtime ~image;
        boot ();
        (match Cpu.run ~fuel:30_000_000 system.Platform.cpu with
        | Cpu.Halted -> ()
        | o -> Alcotest.fail ("did not halt after reboot: " ^ Cpu.outcome_name o));
        let base = run_baseline program_sum_loop in
        Alcotest.(check int) "same result after power cycle" base.r12
          (Cpu.reg system.Platform.cpu 12));
    Alcotest.test_case "runtime instructions attributed" `Quick (fun () ->
        let sr, _ = run_swapram ~options:debug_options program_many_funcs in
        let handler =
          sr.stats.Msp430.Trace.instr_by_source.(Msp430.Trace.source_index
                                                   Msp430.Trace.Handler)
        in
        let memcpy =
          sr.stats.Msp430.Trace.instr_by_source.(Msp430.Trace.source_index
                                                   Msp430.Trace.Memcpy)
        in
        Alcotest.(check bool) "handler instrs" true (handler > 0);
        Alcotest.(check bool) "memcpy instrs" true (memcpy > 0));
  ]

(* --- Cache structure properties -------------------------------------- *)

let cache_ops_gen =
  QCheck2.Gen.(list_size (int_range 1 60) (int_range 2 1024))

let prop_queue_invariants =
  QCheck2.Test.make ~count:300 ~name:"circular queue invariants hold"
    cache_ops_gen (fun sizes ->
      let cache =
        Swapram.Cache.create ~base:0x2000 ~capacity:2048
          ~policy:Swapram.Cache.Circular_queue
      in
      List.for_all
        (fun size ->
          match Swapram.Cache.plan cache ~size with
          | Swapram.Cache.Too_large -> size > 2048
          | Swapram.Cache.Place { addr; evict } ->
              Swapram.Cache.commit cache ~fid:size ~addr ~size ~evicted:evict;
              Swapram.Cache.check_invariants cache)
        sizes)

let prop_stack_invariants =
  QCheck2.Test.make ~count:300 ~name:"stack policy invariants hold"
    cache_ops_gen (fun sizes ->
      let cache =
        Swapram.Cache.create ~base:0x2000 ~capacity:2048
          ~policy:Swapram.Cache.Stack
      in
      List.for_all
        (fun size ->
          match Swapram.Cache.plan cache ~size with
          | Swapram.Cache.Too_large -> size > 2048
          | Swapram.Cache.Place { addr; evict } ->
              Swapram.Cache.commit cache ~fid:size ~addr ~size ~evicted:evict;
              Swapram.Cache.check_invariants cache)
        sizes)

let prop_queue_fifo =
  QCheck2.Test.make ~count:300 ~name:"queue evicts oldest entries first"
    cache_ops_gen (fun sizes ->
      let cache =
        Swapram.Cache.create ~base:0 ~capacity:1024
          ~policy:Swapram.Cache.Circular_queue
      in
      let counter = ref 0 in
      List.for_all
        (fun size ->
          match Swapram.Cache.plan cache ~size with
          | Swapram.Cache.Too_large -> true
          | Swapram.Cache.Place { addr; evict } ->
              (* every evicted entry must be older than every survivor
                 that overlaps nothing — weaker but meaningful check:
                 evicted fids were inserted before the newest entry *)
              let newest =
                List.fold_left
                  (fun acc (e : Swapram.Cache.entry) -> max acc e.Swapram.Cache.fid)
                  (-1)
                  (Swapram.Cache.entries cache)
              in
              let ok =
                List.for_all
                  (fun (e : Swapram.Cache.entry) -> e.Swapram.Cache.fid <= newest)
                  evict
              in
              incr counter;
              Swapram.Cache.commit cache ~fid:!counter ~addr ~size ~evicted:evict;
              ok)
        sizes)

let props =
  [
    QCheck_alcotest.to_alcotest prop_queue_invariants;
    QCheck_alcotest.to_alcotest prop_stack_invariants;
    QCheck_alcotest.to_alcotest prop_queue_fifo;
  ]

(* Regression: both miss-handler abort paths (function can never fit;
   every viable placement would evict an active function) must restore
   the allocation point that the placement retries moved. A skewed
   cursor after an abort makes the next miss plan from the wrong spot
   and fragments the circular queue. The test drives the trap handler
   directly with a hand-picked cache geometry so both paths are hit
   deterministically. *)
let alloc_point_abort_test =
  Alcotest.test_case "abort paths restore the allocation point" `Quick
    (fun () ->
      (* six identical small functions (same compiled size) and one
         function that can never fit the cache region *)
      let source =
        let small i =
          Printf.sprintf
            "int f%d(int x) { int a = x + %d; int b = a * 3; return a ^ b; }"
            i
            (* avoid 0/1/2/4/8: those encode via the constant
               generator and would change the function's size *)
            (i + 16)
        in
        let big_body =
          String.concat " "
            (List.init 80 (fun i ->
                 Printf.sprintf "x = x + %d; x = x ^ %d;" (i + 1)
                   ((i * 5) + 3)))
        in
        String.concat "\n"
          (List.init 6 small
          @ [
              Printf.sprintf "int big(int x) { %s return x; }" big_body;
              "int main(void) {";
              "  int s = 0;";
              "  s = s + f0(s); s = s + f1(s); s = s + f2(s);";
              "  s = s + f3(s); s = s + f4(s); s = s + f5(s);";
              "  s = s + big(s);";
              "  return s & 0x7FFF;";
              "}";
            ])
      in
      let program = Minic.Driver.program_of_source source in
      (* measuring build: read the instrumented (rounded) function
         sizes out of the runtime's function table *)
      let measure =
        let built = Swapram.Pipeline.build ~options:debug_options program in
        let system = Platform.create Platform.Mhz24 in
        let rt = Swapram.Pipeline.install built system in
        let mem = system.Platform.memory in
        fun name ->
          match Swapram.Instrument.fid_of built.Swapram.Pipeline.manifest name with
          | None -> Alcotest.failf "%s not instrumented" name
          | Some fid ->
              Memory.peek_word mem
                (rt.Swapram.Runtime.addrs.Swapram.Runtime.a_functab + (8 * fid)
               + 2)
      in
      let size_f = measure "f0" in
      List.iter
        (fun i ->
          Alcotest.(check int)
            (Printf.sprintf "f%d same size as f0" i)
            size_f
            (measure (Printf.sprintf "f%d" i)))
        [ 1; 2; 3; 4; 5 ];
      (* real build: room for exactly three small functions, so the
         queue packs perfectly and every later placement must evict *)
      let cache_size = 3 * size_f in
      Alcotest.(check bool) "big can never fit" true (measure "big" > cache_size);
      let options =
        { debug_options with Swapram.Config.cache_size }
      in
      let built = Swapram.Pipeline.build ~options program in
      let system = Platform.create Platform.Mhz24 in
      let rt = Swapram.Pipeline.install built system in
      let mem = system.Platform.memory in
      let cache = rt.Swapram.Runtime.cache in
      let addrs = rt.Swapram.Runtime.addrs in
      let stats = Swapram.Runtime.stats rt in
      let manifest = built.Swapram.Pipeline.manifest in
      let fid name =
        match Swapram.Instrument.fid_of manifest name with
        | Some f -> f
        | None -> Alcotest.failf "%s not instrumented" name
      in
      (* invoke the miss handler the way instrumented call sites do:
         store the funcId, jump to the trap page, take one step *)
      let invoke_miss name =
        Memory.poke_word mem addrs.Swapram.Runtime.a_funcid (fid name);
        Cpu.set_reg system.Platform.cpu Isa.pc Swapram.Config.miss_handler_trap;
        Cpu.step system.Platform.cpu
      in
      let cached_fids () =
        List.sort compare
          (List.map
             (fun (e : Swapram.Cache.entry) -> e.Swapram.Cache.fid)
             (Swapram.Cache.entries cache))
      in
      let set_active name v =
        Memory.poke_word mem
          (addrs.Swapram.Runtime.a_active + (2 * fid name))
          v
      in
      (* fill the region exactly *)
      invoke_miss "f0";
      invoke_miss "f1";
      invoke_miss "f2";
      Alcotest.(check int) "cache packed full" cache_size
        (Swapram.Cache.used_bytes cache);
      let resident = cached_fids () in
      (* path 1: too-large abort *)
      let ap0 = Swapram.Cache.alloc_point cache in
      invoke_miss "big";
      Alcotest.(check int) "too-large abort counted" 1 stats.Swapram.Runtime.too_large;
      Alcotest.(check int) "alloc point restored after too-large" ap0
        (Swapram.Cache.alloc_point cache);
      Alcotest.(check (list int)) "residents untouched by too-large" resident
        (cached_fids ());
      (* path 2: every placement blocked by an active function *)
      List.iter (fun n -> set_active n 1) [ "f0"; "f1"; "f2" ];
      let retries0 = stats.Swapram.Runtime.placement_retries in
      invoke_miss "f3";
      Alcotest.(check int) "blocked abort counted" 1 stats.Swapram.Runtime.aborts;
      Alcotest.(check bool) "retries actually moved the cursor" true
        (stats.Swapram.Runtime.placement_retries > retries0);
      Alcotest.(check int) "alloc point restored after abort" ap0
        (Swapram.Cache.alloc_point cache);
      Alcotest.(check (list int)) "residents untouched by abort" resident
        (cached_fids ());
      (* with the counters cleared the same miss must succeed from the
         restored cursor, and the structure must stay coherent *)
      List.iter (fun n -> set_active n 0) [ "f0"; "f1"; "f2" ];
      invoke_miss "f3";
      Alcotest.(check bool) "f3 cached once unblocked" true
        (List.mem (fid "f3") (cached_fids ()));
      Alcotest.(check bool) "cache invariants hold" true
        (Swapram.Cache.check_invariants cache))

let suite = suite @ props @ [ alloc_point_abort_test ]
