(* Execution statistics: memory access accounting by region and purpose,
   wait-state/stall accounting, and the dynamic-instruction source
   breakdown used for the paper's Figure 8. *)

(* Where an executed instruction was fetched from. [Handler] covers the
   caching runtimes (SwapRAM miss handler / block-cache runtime) and
   [Memcpy] their code-copy loops, both of which execute from FRAM. *)
type source = App_fram | App_sram | Handler | Memcpy

let source_index = function
  | App_fram -> 0
  | App_sram -> 1
  | Handler -> 2
  | Memcpy -> 3

let source_count = 4

let source_name = function
  | App_fram -> "app-FRAM"
  | App_sram -> "app-SRAM"
  | Handler -> "handler"
  | Memcpy -> "memcpy"

(* Observability event stream (lib/observe): every counted quantity
   below is mirrored, after the counters update, to the optional sink,
   so an attached profiler can re-derive the aggregate totals exactly
   — per-function attribution is conservative by construction. The
   sink is a pure spectator: it cannot influence timing, counting or
   machine state. *)

(* Instruction templates. A template fixes one instruction's events
   after its [instr], in order, less the stall [cycles] events, which
   follow from the hit bits. Each op is one int: the kind in the low
   four bits and, for a fetch, the home offset (home - address) or, for
   [cycles], the unstalled count above them. Fetch k of an instruction
   at pc is at pc + 2k. *)
let op_fram_ifetch = 0
let op_sram_ifetch = 1
let op_fram_read = 2
let op_fram_write = 3
let op_sram_read = 4
let op_sram_write = 5
let op_periph = 6
let op_cycles = 7
let op_call = 8
let op_return = 9
let op_kinds = 10

(* The stall of an instruction's [n]-th FRAM access ([hit] is false for
   a write), as [Memory] charges it: the wait states on a read-cache
   miss, plus the contention penalty from the second access on. *)
let[@inline] stall_rule ~wait_states ~contention hit n =
  (if hit then 0 else wait_states) + if n > 1 then contention else 0

type template = {
  tp_id : int;
  tp_source : int;
  tp_pc : int;
  tp_ops : int array;
  tp_wait_states : int;
  tp_contention : int;
  tp_nbits : int; (* FRAM fetches and reads: one hit bit each *)
  tp_payload : int; (* one slot per data access, two per call *)
  tp_unstalled : int;
  tp_frams : int; (* FRAM accesses *)
  tp_writes : int; (* FRAM writes *)
  tp_events : int; (* [record_events] with every hit bit a miss *)
  tp_hit_events : int; (* how hits cut that: [events_none] .. [events_walk] *)
}

(* How a record's hit bits change its event count, that is the number
   of FRAM accesses with a stall. With non-negative timing, under
   contention every access past the first stalls, and the first when
   it misses; without contention every miss does. *)
let events_none = 0 (* never *)
let events_first = 1 (* a hit first access has no stall *)
let events_each = 2 (* each hit has no stall *)
let events_walk = 3 (* negative timing (a damaged header): count them *)

let template ~id ~source ~pc ~ops ~wait_states ~contention =
  let ws = wait_states and cp = contention in
  let nbits = ref 0 and payload = ref 0 and unstalled = ref 0 in
  let frams = ref 0 and writes = ref 0 and first_bit = ref false in
  Array.iter
    (fun op ->
      let kind = op land 15 in
      if kind = op_fram_ifetch || kind = op_fram_read then begin
        if !frams = 0 then first_bit := true;
        incr nbits;
        incr frams
      end
      else if kind = op_fram_write then begin
        incr writes;
        incr frams
      end;
      if kind = op_cycles then unstalled := !unstalled + (op lsr 4)
      else if kind = op_call then payload := !payload + 2
      else if kind >= op_fram_read && kind <= op_periph then incr payload)
    ops;
  let f = !frams in
  let stalls, hit_events =
    if f = 0 then (0, events_none)
    else if ws < 0 || cp < 0 then (0, events_walk)
    else if cp > 0 then
      if ws > 0 then (f, if !first_bit then events_first else events_none)
      else (f - 1, events_none)
    else if ws > 0 then (!nbits + !writes, events_each)
    else (0, events_none)
  in
  {
    tp_id = id;
    tp_source = source;
    tp_pc = pc;
    tp_ops = ops;
    tp_wait_states = wait_states;
    tp_contention = contention;
    tp_nbits = !nbits;
    tp_payload = !payload;
    tp_unstalled = !unstalled;
    tp_frams = !frams;
    tp_writes = !writes;
    tp_events = 1 + Array.length ops + stalls;
    tp_hit_events = hit_events;
  }

let count_ops tp kind =
  Array.fold_left (fun n op -> if op land 15 = kind then n + 1 else n) 0 tp.tp_ops

let payload_slots tp kinds =
  let slots = ref [] and slot = ref 0 in
  Array.iter
    (fun op ->
      let kind = op land 15 in
      if List.mem kind kinds then
        slots := (if kind = op_call then !slot + 1 else !slot) :: !slots;
      if kind = op_call then slot := !slot + 2
      else if kind >= op_fram_read && kind <= op_periph then incr slot)
    tp.tp_ops;
  Array.of_list (List.rev !slots)

let fetch_runs tp ~line_bytes =
  let runs = ref [] and fetch = ref tp.tp_pc in
  Array.iter
    (fun op ->
      let kind = op land 15 in
      if kind = op_fram_ifetch || kind = op_sram_ifetch then begin
        let line = (!fetch + (op asr 4)) / line_bytes in
        fetch := !fetch + 2;
        runs :=
          match !runs with
          | n :: l :: rest when l = line -> (n + 1) :: l :: rest
          | runs -> 1 :: line :: runs
      end)
    tp.tp_ops;
  Array.of_list (List.rev !runs)

(* Hit bits are at most 30, so a 32-bit SWAR count suffices. *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  ((x * 0x01010101) lsr 24) land 0xFF

(* The record's stall total: every FRAM access that misses (a write
   always does) waits, and every one past the first contends. *)
let[@inline] record_stall tp bits =
  (tp.tp_wait_states * (tp.tp_nbits - popcount bits + tp.tp_writes))
  + if tp.tp_frams > 1 then tp.tp_contention * (tp.tp_frams - 1) else 0

(* High-level events from the caching runtimes (miss-handler entry and
   exit, evictions, anti-thrashing freeze transitions, block-cache
   flushes and loads) and from the harness (phase markers such as
   boot/reboot). A [Miss_exit]'s disposition is "cached", "nvm",
   "frozen", "too-large" or (block cache) "return"; its fid identifies
   the missed function for a function-granular cache (SwapRAM) and is
   -1 otherwise, so a windowed sampler tracks cache occupancy and
   reuse without peeking at runtime internals on the hot path. *)
type runtime_event =
  | Miss_enter of { runtime : string }
  | Miss_exit of { runtime : string; disposition : string; fid : int }
  | Eviction of { fid : int }
  | Freeze of { on : bool }
  | Cache_flush
  | Block_load of { nvm : int }
  | Prefetch of { fid : int }
  | Phase of { name : string }

(* One callback per per-instruction or per-access event kind, and one
   for the rare runtime events. The emit sites and the trace decoder
   call these directly, so neither side builds a value per instruction
   or access. The runtime-hook answers ride along: an ifetch's home and
   a call's unit, which the emit sites ask [t]'s hooks for ([home] and
   [unit_of] below), or the "no runtime" answers (home = address, unit
   -1) when no runtime installed one. [templated] takes a whole
   templated instruction at once; [None] has it expanded into the
   callbacks above ([expand]). *)
type sink = {
  instr : int -> int -> unit;  (* source index, pc *)
  cycles : int -> int -> unit;  (* unstalled, stall *)
  fram_read : bool -> int -> unit;  (* hit, addr (data read) *)
  fram_ifetch : bool -> int -> int -> unit;  (* hit, addr, home *)
  fram_write : int -> unit;
  sram_read : int -> unit;
  sram_ifetch : int -> int -> unit;  (* addr, home *)
  sram_write : int -> unit;
  periph : int -> unit;
  call : int -> int -> unit;  (* target, unit (-1 for none) *)
  return : unit -> unit;
  runtime : runtime_event -> unit;
  templated : (template -> int -> int array -> unit) option;
      (* template, hit bits, payload *)
}

(* The default adapter: a templated instruction as the live run
   emitted it, each FRAM access followed by its stall when it has one.
   Data addresses and call targets and units are read from the payload
   in op order. *)
let expand s tp bits payload =
  let ws = tp.tp_wait_states and cp = tp.tp_contention in
  s.instr tp.tp_source tp.tp_pc;
  let ops = tp.tp_ops in
  let bits = ref bits and fetch = ref tp.tp_pc and j = ref 0 and frams = ref 0 in
  for i = 0 to Array.length ops - 1 do
    let op = Array.unsafe_get ops i in
    match op land 15 with
    | 0 (* fram ifetch *) ->
        let a = !fetch in
        fetch := a + 2;
        let hit = !bits land 1 = 1 in
        bits := !bits lsr 1;
        s.fram_ifetch hit a (a + (op asr 4));
        incr frams;
        let st = stall_rule ~wait_states:ws ~contention:cp hit !frams in
        if st <> 0 then s.cycles 0 st
    | 1 (* sram ifetch *) ->
        let a = !fetch in
        fetch := a + 2;
        s.sram_ifetch a (a + (op asr 4))
    | 2 (* fram read *) ->
        let a = Array.unsafe_get payload !j in
        incr j;
        let hit = !bits land 1 = 1 in
        bits := !bits lsr 1;
        s.fram_read hit a;
        incr frams;
        let st = stall_rule ~wait_states:ws ~contention:cp hit !frams in
        if st <> 0 then s.cycles 0 st
    | 3 (* fram write *) ->
        let a = Array.unsafe_get payload !j in
        incr j;
        s.fram_write a;
        incr frams;
        let st = stall_rule ~wait_states:ws ~contention:cp false !frams in
        if st <> 0 then s.cycles 0 st
    | 4 (* sram read *) ->
        s.sram_read (Array.unsafe_get payload !j);
        incr j
    | 5 (* sram write *) ->
        s.sram_write (Array.unsafe_get payload !j);
        incr j
    | 6 (* periph *) ->
        s.periph (Array.unsafe_get payload !j);
        incr j
    | 7 (* cycles *) -> s.cycles (op lsr 4) 0
    | 8 (* call *) ->
        s.call (Array.unsafe_get payload !j) (Array.unsafe_get payload (!j + 1));
        j := !j + 2
    | _ (* return *) -> s.return ()
  done

(* The number of callbacks [expand] makes: the [instr], one per op and
   one per FRAM access whose stall is not zero. *)
let walk_events tp bits =
  let ws = tp.tp_wait_states and cp = tp.tp_contention in
  let bits = ref bits and n = ref 0 and count = ref 0 in
  Array.iter
    (fun op ->
      let kind = op land 15 in
      if kind = op_fram_ifetch || kind = op_fram_read || kind = op_fram_write then begin
        let hit = kind <> op_fram_write && !bits land 1 = 1 in
        if kind <> op_fram_write then bits := !bits lsr 1;
        incr n;
        if stall_rule ~wait_states:ws ~contention:cp hit !n <> 0 then incr count
      end)
    tp.tp_ops;
  1 + Array.length tp.tp_ops + !count

let[@inline] record_events tp bits =
  match tp.tp_hit_events with
  | 0 -> tp.tp_events
  | 1 -> tp.tp_events - (bits land 1)
  | 2 -> tp.tp_events - popcount bits
  | _ -> walk_events tp bits

(* Both sinks see every event, [a] first; a templated instruction goes
   whole to each, expanded for a sink that does not take it whole. *)
let fused s tp bits payload =
  match s.templated with Some f -> f tp bits payload | None -> expand s tp bits payload

let tee a b =
  {
    instr = (fun i pc -> a.instr i pc; b.instr i pc);
    cycles = (fun u s -> a.cycles u s; b.cycles u s);
    fram_read = (fun hit addr -> a.fram_read hit addr; b.fram_read hit addr);
    fram_ifetch =
      (fun hit addr home ->
        a.fram_ifetch hit addr home;
        b.fram_ifetch hit addr home);
    fram_write = (fun addr -> a.fram_write addr; b.fram_write addr);
    sram_read = (fun addr -> a.sram_read addr; b.sram_read addr);
    sram_ifetch =
      (fun addr home -> a.sram_ifetch addr home; b.sram_ifetch addr home);
    sram_write = (fun addr -> a.sram_write addr; b.sram_write addr);
    periph = (fun addr -> a.periph addr; b.periph addr);
    call = (fun target u -> a.call target u; b.call target u);
    return = (fun () -> a.return (); b.return ());
    runtime = (fun ev -> a.runtime ev; b.runtime ev);
    templated =
      (match (a.templated, b.templated) with
      | None, None -> None
      | _ ->
          Some
            (fun tp bits payload ->
              fused a tp bits payload;
              fused b tp bits payload));
  }

(* Stored events, for consumers that keep them (the bounded event ring
   and tests). One counted memory access is classified the way the
   energy model prices it. *)
type access_class =
  | Fram_read of { hit : bool; ifetch : bool }
  | Fram_write
  | Sram_read of { ifetch : bool }
  | Sram_write
  | Periph_access

type event =
  | Instr of { pc : int; source : source }
      (* an instruction begins; [pc] is its fetch address — the
         attribution context for every following event until the next
         [Instr] *)
  | Cycles of { unstalled : int; stall : int }
  | Mem_access of { addr : int; cls : access_class }
  | Call of { target : int }
  | Return
  | Runtime_event of runtime_event

let source_of_index = function
  | 0 -> App_fram
  | 1 -> App_sram
  | 2 -> Handler
  | 3 -> Memcpy
  | i -> invalid_arg (Printf.sprintf "Trace.source_of_index %d" i)

(* The one adapter from callbacks to stored events. The hook answers
   (homes, units) are dropped: an event value does not carry them. *)
let event_sink f =
  let mem addr cls = f (Mem_access { addr; cls }) in
  {
    instr = (fun i pc -> f (Instr { pc; source = source_of_index i }));
    cycles = (fun unstalled stall -> f (Cycles { unstalled; stall }));
    fram_read = (fun hit addr -> mem addr (Fram_read { hit; ifetch = false }));
    fram_ifetch =
      (fun hit addr _home -> mem addr (Fram_read { hit; ifetch = true }));
    fram_write = (fun addr -> mem addr Fram_write);
    sram_read = (fun addr -> mem addr (Sram_read { ifetch = false }));
    sram_ifetch = (fun addr _home -> mem addr (Sram_read { ifetch = true }));
    sram_write = (fun addr -> mem addr Sram_write);
    periph = (fun addr -> mem addr Periph_access);
    call = (fun target _unit -> f (Call { target }));
    return = (fun () -> f Return);
    runtime = (fun ev -> f (Runtime_event ev));
    templated = None;
  }

type t = {
  mutable unstalled_cycles : int;
  mutable stall_cycles : int;
  mutable instructions : int;
  instr_by_source : int array;
  (* FRAM accesses, split by purpose and hit/miss in the hardware read
     cache. Every CPU access to the FRAM region counts, as in the
     paper's modified mspdebug. *)
  mutable fram_ifetch : int;
  mutable fram_data_reads : int;
  mutable fram_writes : int;
  mutable fram_read_hits : int;
  mutable sram_ifetch : int;
  mutable sram_data_reads : int;
  mutable sram_writes : int;
  mutable periph_accesses : int;
  mutable sink : sink option;
  (* The installed runtime's answers, asked by the emit sites only when
     a sink is attached: an instruction fetch's NVM home and a call's
     cached unit. [None] is the "no runtime" answer. *)
  mutable ifetch_home : (int -> int) option;
  mutable call_unit : (int -> int) option;
}

let create () =
  {
    unstalled_cycles = 0;
    stall_cycles = 0;
    instructions = 0;
    instr_by_source = Array.make source_count 0;
    fram_ifetch = 0;
    fram_data_reads = 0;
    fram_writes = 0;
    fram_read_hits = 0;
    sram_ifetch = 0;
    sram_data_reads = 0;
    sram_writes = 0;
    periph_accesses = 0;
    sink = None;
    ifetch_home = None;
    call_unit = None;
  }

let set_sink t s = t.sink <- s

(* A plain value: no closure, so it compares and marshals. *)
let snapshot t =
  {
    t with
    instr_by_source = Array.copy t.instr_by_source;
    sink = None;
    ifetch_home = None;
    call_unit = None;
  }

let[@inline] home t addr = match t.ifetch_home with None -> addr | Some f -> f addr
let[@inline] unit_of t target = match t.call_unit with None -> -1 | Some f -> f target

(* Explicit match, not [<> None]: polymorphic inequality on a closure
   option is a C call, and this runs on every counted access. *)
let has_sink t = match t.sink with None -> false | Some _ -> true

(* All observed cycle accrual funnels through these two so the sink
   sees every cycle exactly once, attributed to the current context.
   The unobserved case is one add and one test (the memory system's
   per-access stall bumps the counter in place then). *)
let[@inline] add_unstalled t n =
  t.unstalled_cycles <- t.unstalled_cycles + n;
  match t.sink with None -> () | Some s -> if n <> 0 then s.cycles n 0

let[@inline] add_stall t n =
  t.stall_cycles <- t.stall_cycles + n;
  match t.sink with None -> () | Some s -> if n <> 0 then s.cycles 0 n

let count_instr t source =
  t.instructions <- t.instructions + 1;
  let i = source_index source in
  t.instr_by_source.(i) <- t.instr_by_source.(i) + 1

let fram_accesses t = t.fram_ifetch + t.fram_data_reads + t.fram_writes
let sram_accesses t = t.sram_ifetch + t.sram_data_reads + t.sram_writes
let total_cycles t = t.unstalled_cycles + t.stall_cycles
let code_accesses t = t.fram_ifetch + t.sram_ifetch
let data_accesses t = t.fram_data_reads + t.fram_writes + t.sram_data_reads + t.sram_writes

let instr_fraction t source =
  if t.instructions = 0 then 0.0
  else
    float_of_int t.instr_by_source.(source_index source)
    /. float_of_int t.instructions

let pp fmt t =
  Format.fprintf fmt
    "@[<v>cycles: %d unstalled + %d stalls = %d@,\
     instructions: %d (%s)@,\
     FRAM: %d ifetch, %d data reads (%d cache hits), %d writes@,\
     SRAM: %d ifetch, %d data reads, %d writes@]"
    t.unstalled_cycles t.stall_cycles (total_cycles t) t.instructions
    (String.concat ", "
       (List.map
          (fun s ->
            Printf.sprintf "%s %d" (source_name s)
              t.instr_by_source.(source_index s))
          [ App_fram; App_sram; Handler; Memcpy ]))
    t.fram_ifetch t.fram_data_reads t.fram_read_hits t.fram_writes t.sram_ifetch
    t.sram_data_reads t.sram_writes
