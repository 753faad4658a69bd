module Cpu = Msp430.Cpu
module Memory = Msp430.Memory
module Modeled = Msp430.Modeled
module Trace = Msp430.Trace
module Platform = Msp430.Platform

(* Checkpointing runtime: the classical alternative to software
   caching for intermittent systems (Aksenov et al.'s persistent
   stack, Mapi-Pro's interval snapshots). Instead of keeping
   persistent state in FRAM and using SRAM as a cache, the program
   runs with its data and stack in SRAM at full speed and a periodic
   timer snapshots the volatile machine state — register file and
   dirty SRAM words — into a double-buffered FRAM arena with a
   two-phase commit. After an outage the newest committed snapshot is
   restored wholesale and execution resumes mid-program; with no
   snapshot yet, boot falls back to a cold restart (re-initialising
   the volatile data section, as crt0's .data copy would).

   Crash consistency argument: under the Standard placement the
   toolchain pairs this runtime with, *all* application data lives in
   SRAM, so a restored snapshot is the complete machine state at the
   commit point and replaying the torn interval is deterministic
   re-execution (UART output has at-least-once semantics, as
   everywhere else in the harness). The commit itself is a single
   word write — the simulator's power trigger fires *before* an
   access lands, so a word write is atomic — and each snapshot first
   invalidates its target slot, leaving the other slot's older
   checkpoint intact if the snapshot itself is torn.

   Cost model: like the SwapRAM miss handler, every modeled runtime
   instruction is charged through {!Msp430.Modeled} from a small
   reserved FRAM region, with the phase counts of SwapRAM's {!Costs},
   and all snapshot and restore traffic moves through counted
   simulated-memory accesses — so an armed power trigger can tear a
   snapshot, a commit, or the restore path itself. *)

type options = {
  interval : int;
      (* architectural instructions between snapshots (the modeled
         timer interrupt period) *)
}

let default_options = { interval = 50_000 }

(* --- FRAM arena layout ------------------------------------------------ *)

(* [ handler charge region | slot 0 | slot 1 ] at the top of FRAM.
   Each slot: [ seq word | 16 registers | full SRAM image ]. A seq of
   0 marks the slot invalid; commits count 1,2,...,0xFFFF,1,... *)

let handler_bytes = 64
let reg_count = 16
let regs_bytes = reg_count * 2
let image_words = Platform.sram_size / 2
let slot_bytes = 2 + regs_bytes + Platform.sram_size
let arena_bytes = handler_bytes + (2 * slot_bytes)
let arena_base = Platform.fram_base + Platform.fram_size - arena_bytes
let slot_base i = arena_base + handler_bytes + (i * slot_bytes)

(* Wraparound-safe "seq [a] is newer than seq [b]" on the 16-bit
   commit counters (both nonzero). *)
let seq_newer a b = (a - b) land 0xFFFF < 0x8000

let next_seq s =
  let n = (s + 1) land 0xFFFF in
  if n = 0 then 1 else n

type stats = {
  mutable snapshots : int; (* committed snapshots *)
  mutable words_written : int; (* dirty SRAM words persisted *)
  mutable restores : int; (* reboots that resumed from a snapshot *)
  mutable restarts : int; (* reboots with no valid snapshot *)
}

type t = {
  mem : Memory.t;
  cpu : Cpu.t;
  options : options;
  stats : stats;
  handler : Modeled.region;
  mutable next_slot : int; (* target of the next snapshot, 0 or 1 *)
  mutable seq : int; (* last committed seq (host mirror of FRAM) *)
}

let stats t = t.stats

let read_word t addr = Memory.read_word t.mem ~purpose:Memory.Data addr
let write_word t addr v = Memory.write_word t.mem addr v

(* One snapshot, fired from the CPU's periodic hook between
   instructions. Three phases against the slot *not* holding the
   newest checkpoint: (1) atomically invalidate its seq word, so a
   tear below leaves only the other slot valid; (2) save the register
   file and every dirty SRAM word — dirtiness is the word-level
   difference against the slot's current content, modeling an MPU
   dirty bitmap (the uncounted comparison is the hardware's, the
   copy traffic is charged); (3) atomically commit the new seq. *)
let snapshot t =
  Modeled.charge t.handler Costs.handler_entry_instrs;
  let slot = slot_base t.next_slot in
  Modeled.charge t.handler 1;
  write_word t slot 0;
  for i = 0 to reg_count - 1 do
    Modeled.charge t.handler 1;
    write_word t (slot + 2 + (2 * i)) (Cpu.reg t.cpu i)
  done;
  let img = slot + 2 + regs_bytes in
  for w = 0 to image_words - 1 do
    (* one modeled instruction per 16-word group: the dirty-bitmap
       word test *)
    if w land 15 = 0 then Modeled.charge t.handler 1;
    let sram_addr = Platform.sram_base + (2 * w) in
    if Memory.peek_word t.mem sram_addr <> Memory.peek_word t.mem (img + (2 * w))
    then begin
      Modeled.charge t.handler Modeled.memcpy_per_word_instrs;
      let v = read_word t sram_addr in
      write_word t (img + (2 * w)) v;
      t.stats.words_written <- t.stats.words_written + 1
    end
  done;
  Modeled.charge t.handler Costs.handler_exit_instrs;
  let seq = next_seq t.seq in
  write_word t slot seq;
  (* the commit landed: update the host mirrors (a tear above leaves
     them at the previous committed snapshot, matching FRAM) *)
  t.seq <- seq;
  t.next_slot <- 1 - t.next_slot;
  t.stats.snapshots <- t.stats.snapshots + 1

type boot = Resumed | Restarted

(* Power-loss recovery: pick the newest committed slot and restore it
   wholesale (registers last — including PC/SP, so the caller must
   not reload the entry vector on [Resumed]). All restore traffic is
   counted, so an armed trigger can tear the restore; the routine is
   idempotent and the injector just reruns it. With no valid slot,
   re-initialise the volatile (SRAM-resident) data items from the
   image and report [Restarted]. *)
let reboot t ~image =
  Modeled.charge t.handler 1;
  let s0 = read_word t (slot_base 0) in
  Modeled.charge t.handler 1;
  let s1 = read_word t (slot_base 1) in
  let pick =
    match (s0 <> 0, s1 <> 0) with
    | false, false -> None
    | true, false -> Some (0, s0)
    | false, true -> Some (1, s1)
    | true, true -> if seq_newer s0 s1 then Some (0, s0) else Some (1, s1)
  in
  let outcome =
    match pick with
    | None ->
        Modeled.charge t.handler Costs.handler_entry_instrs;
        let map = Memory.map t.mem in
        List.iter
          (fun (item : Masm.Assembler.item_info) ->
            if
              item.Masm.Assembler.info_section = Masm.Ast.Data
              && Memory.region_of map item.Masm.Assembler.info_addr = Memory.Sram
            then begin
              let addr, bytes =
                Masm.Assembler.item_initial image item.Masm.Assembler.info_name
              in
              Bytes.iteri
                (fun i c ->
                  if i land 1 = 0 then Modeled.charge t.handler 1;
                  Memory.write_byte t.mem (addr + i) (Char.code c))
                bytes
            end)
          image.Masm.Assembler.items;
        t.stats.restarts <- t.stats.restarts + 1;
        Restarted
    | Some (i, seq) ->
        Modeled.charge t.handler Costs.handler_entry_instrs;
        let slot = slot_base i in
        let img = slot + 2 + regs_bytes in
        Modeled.copy t.handler ~src:img ~dst:Platform.sram_base
          ~words:image_words ~on_word:ignore;
        for r = 0 to reg_count - 1 do
          Modeled.charge t.handler 1;
          Cpu.set_reg t.cpu r (read_word t (slot + 2 + (2 * r)))
        done;
        t.seq <- seq;
        t.next_slot <- 1 - i;
        t.stats.restores <- t.stats.restores + 1;
        Resumed
  in
  (* restart the snapshot period from here: a partially elapsed
     period must not fire immediately on resume *)
  Cpu.rearm_periodic_hook t.cpu;
  outcome

(* Runtime-critical FRAM windows for adversarial fault injection:
   outages landing inside these are mid-snapshot, on a commit word,
   or inside restore's own reads. *)
let critical_windows t =
  ignore t;
  [
    ("ckpt-handler", arena_base, arena_base + handler_bytes);
    ("ckpt-slot0", slot_base 0, slot_base 0 + slot_bytes);
    ("ckpt-slot1", slot_base 1, slot_base 1 + slot_bytes);
  ]

let install ~options (system : Platform.system) =
  let t =
    {
      mem = system.Platform.memory;
      cpu = system.Platform.cpu;
      options;
      stats = { snapshots = 0; words_written = 0; restores = 0; restarts = 0 };
      handler =
        Modeled.region system.Platform.memory ~base:arena_base
          ~size:handler_bytes Trace.Handler;
      next_slot = 0;
      seq = 0;
    }
  in
  (* both slots start invalid *)
  Memory.poke_word t.mem (slot_base 0) 0;
  Memory.poke_word t.mem (slot_base 1) 0;
  Cpu.set_periodic_hook t.cpu ~interval:options.interval
    (Some (fun _ -> snapshot t));
  t
