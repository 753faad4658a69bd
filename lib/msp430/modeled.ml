(* The charged-instruction core shared by the modeled runtimes
   (SwapRAM's miss handler, the block cache's runtime, the
   checkpointing runtime).

   The paper's runtimes are MSP430 assembly executing from FRAM; ours
   are OCaml invoked through trap vectors and hooks. To keep Figure 8
   (instruction source breakdown), Table 2 (cycle counts) and the
   wait-state machinery faithful, every modeled runtime instruction
   charges one counted instruction fetch from a reserved FRAM region
   plus [cycles_per_instr] unstalled cycles, and all data the runtime
   touches moves through counted simulated-memory accesses. Each
   runtime's per-phase instruction counts live in its own [Costs]. *)

(* Average unstalled cycles per modeled runtime instruction (register
   and absolute-mode format-I instructions dominate the handlers). *)
let cycles_per_instr = 2

(* Copy loop: MOV @src+, dst / increment / compare / branch per word.
   The FRAM read and the write are charged separately as counted data
   accesses. *)
let memcpy_per_word_instrs = 2

type region = {
  mem : Memory.t;
  base : int;
  size : int;
  source : Trace.source;
  mutable cursor : int;
}

let region mem ~base ~size source = { mem; base; size; source; cursor = 0 }
let reset r = r.cursor <- 0
let contains r addr = addr >= r.base && addr < r.base + r.size

(* Fetch-and-charge [n] modeled instructions from [r]. The regions
   live in reserved FRAM, so the unobserved path can take the
   specialized counted fetch. *)
let charge r n =
  let mem = r.mem in
  let stats = Memory.stats mem in
  let sink = stats.Trace.sink in
  for _ = 1 to n do
    let pc = r.base + r.cursor in
    Memory.begin_instruction mem;
    (match sink with
    | Some s ->
        s.Trace.instr (Trace.source_index r.source) pc;
        ignore (Memory.read_word mem ~purpose:Memory.Ifetch pc)
    | None -> ignore (Memory.fetch_word_fram mem pc));
    Trace.count_instr stats r.source;
    Trace.add_unstalled stats cycles_per_instr;
    r.cursor <- (r.cursor + 2) mod r.size
  done

let copy r ~src ~dst ~words ~on_word =
  for i = 0 to words - 1 do
    charge r memcpy_per_word_instrs;
    let w = Memory.read_word r.mem ~purpose:Memory.Data (src + (2 * i)) in
    Memory.write_word r.mem (dst + (2 * i)) w;
    on_word ()
  done

let emit mem ev =
  match (Memory.stats mem).Trace.sink with Some s -> s.Trace.runtime ev | None -> ()

let classifier ~handler ~memcpy =
  let map = Memory.map handler.mem in
  fun addr ->
    if contains handler addr then handler.source
    else if contains memcpy addr then memcpy.source
    else
      match Memory.region_of map addr with
      | Memory.Sram -> Trace.App_sram
      | Memory.Fram | Memory.Peripheral | Memory.Unmapped -> Trace.App_fram
