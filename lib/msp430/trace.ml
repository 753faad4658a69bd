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

(* One callback per event kind. The emit sites and the trace decoder
   call these directly, so neither side builds an event value. The
   machine passes the "no runtime" answers: an ifetch's home is its
   address and a call's unit is -1; a caching runtime's answers are
   filled in by the harness's enrichment adapter. *)
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
  miss_enter : string -> unit;
  miss_exit : string -> string -> int -> unit;  (* runtime, disposition, fid *)
  eviction : int -> unit;
  freeze : bool -> unit;
  cache_flush : unit -> unit;
  block_load : int -> unit;
  prefetch : int -> unit;
  phase : string -> unit;
}

(* Both sinks see every event, [a] first. *)
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
    miss_enter = (fun rt -> a.miss_enter rt; b.miss_enter rt);
    miss_exit =
      (fun rt disp fid -> a.miss_exit rt disp fid; b.miss_exit rt disp fid);
    eviction = (fun fid -> a.eviction fid; b.eviction fid);
    freeze = (fun on -> a.freeze on; b.freeze on);
    cache_flush = (fun () -> a.cache_flush (); b.cache_flush ());
    block_load = (fun nvm -> a.block_load nvm; b.block_load nvm);
    prefetch = (fun fid -> a.prefetch fid; b.prefetch fid);
    phase = (fun name -> a.phase name; b.phase name);
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

(* High-level events from the caching runtimes (miss-handler entry and
   exit, evictions, anti-thrashing freeze transitions, block-cache
   flushes and loads) and from the harness (phase markers such as
   boot/reboot). *)
type runtime_event =
  | Miss_enter of { runtime : string }
  | Miss_exit of { runtime : string; disposition : string; fid : int }
      (* fid identifies the missed function for runtimes with a
         function-granular cache (SwapRAM); -1 when the runtime has no
         function identity (block cache). Lets a windowed sampler
         track cache occupancy and reuse without peeking at runtime
         internals on the hot path. *)
  | Eviction of { fid : int }
  | Freeze of { on : bool }
  | Cache_flush
  | Block_load of { nvm : int }
  | Prefetch of { fid : int }
  | Phase of { name : string }

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
  let rt ev = f (Runtime_event ev) in
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
    miss_enter = (fun runtime -> rt (Miss_enter { runtime }));
    miss_exit =
      (fun runtime disposition fid -> rt (Miss_exit { runtime; disposition; fid }));
    eviction = (fun fid -> rt (Eviction { fid }));
    freeze = (fun on -> rt (Freeze { on }));
    cache_flush = (fun () -> rt Cache_flush);
    block_load = (fun nvm -> rt (Block_load { nvm }));
    prefetch = (fun fid -> rt (Prefetch { fid }));
    phase = (fun name -> rt (Phase { name }));
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
  }

let set_sink t s = t.sink <- s

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
