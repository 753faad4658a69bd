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
   below is mirrored as an event through the optional observer, so an
   attached profiler can re-derive the aggregate totals exactly —
   per-function attribution is conservative by construction. The
   observer is a pure spectator: it runs after the counters have been
   updated and cannot influence timing, counting or machine state. *)

(* One counted memory access, classified the way the energy model
   prices it. *)
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
  mutable observer : (event -> unit) option;
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
    observer = None;
  }

let set_observer t f = t.observer <- f

(* Compose with whatever is already attached (the trace tap used by
   the replay recorder): the existing observer — typically the
   harness's profiler/metrics fan-out — runs first, then [f]. Within
   one emitted event no machine state changes between observers, so
   both see identical runtime-hook answers. *)
let add_observer t f =
  match t.observer with
  | None -> t.observer <- Some f
  | Some g ->
      t.observer <-
        Some
          (fun ev ->
            g ev;
            f ev)
(* Explicit match, not [<> None]: polymorphic inequality on a closure
   option is a C call, and this runs on every counted access. *)
let has_observer t = match t.observer with None -> false | Some _ -> true
let emit t ev = match t.observer with None -> () | Some f -> f ev

(* All observed cycle accrual funnels through these two so the
   observer sees every cycle exactly once, attributed to the current
   context. The unobserved case is one add and one test (the memory
   system's per-access stall bumps the counter in place then). *)
let[@inline] add_unstalled t n =
  t.unstalled_cycles <- t.unstalled_cycles + n;
  match t.observer with
  | None -> ()
  | Some f -> if n <> 0 then f (Cycles { unstalled = n; stall = 0 })

let[@inline] add_stall t n =
  t.stall_cycles <- t.stall_cycles + n;
  match t.observer with
  | None -> ()
  | Some f -> if n <> 0 then f (Cycles { unstalled = 0; stall = n })

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
