(* MSP430 CPU: fetch/decode/execute loop with cycle accounting, flag
   semantics per SLAU144, and trap vectors used by the software caching
   runtimes to interpose on execution (the simulated analogue of
   branching into runtime code that lives in FRAM). *)

let trap_base = 0xFF00

type trap_action = Goto of int | Halt_machine

(* Host-side decode memoization: the words an instruction was decoded
   from, plus the decode result. Keyed by PC (one slot per even
   address); self-validating, see [decode_at]. *)
type dentry = { dw : int array; dinstr : Isa.t; dsize : int }

type engine = Reference | Superblock

(* Superblock engine: one preprocessed instruction of a straight-line
   run. Everything the reference step loop recomputes per execution —
   decode, operand dispatch, cycle cost, source classification — is
   resolved once at record time; replay only re-fetches the
   instruction words (counted, the exact [decode_at] validation
   pattern) and runs the compiled effect. *)
type sb_instr = {
  si_pc : int;
  si_words : int array; (* the words the instruction decoded from *)
  si_nwords : int;
  si_run : t -> unit;
      (* the instruction's effect, compiled at record time (see
         [compile]) *)
  si_next : int; (* fall-through PC *)
  si_cycles : int; (* Cycles.of_instr, precomputed *)
  si_src : int; (* Trace.source_index of the classifier's result *)
  si_ret : bool; (* the MOV @SP+, PC return idiom (see [step]) *)
  si_fetch : int;
      (* how replay fetches the words: 0 = all in SRAM, 1 = all in
         FRAM (specialized counted fetches), 2 = generic counted read
         (region boundary or peripheral oddity) *)
}

(* A superblock: a maximal straight-line run starting at [sb_start].
   Only the last instruction may write the PC. *)
and sblock = { sb_instrs : sb_instr array }

and t = {
  regs : int array;
  mem : Memory.t;
  stats : Trace.t;
  traps : (int, t -> trap_action) Hashtbl.t;
  dcache : dentry option array;
  sblocks : sblock option array; (* superblock cache, keyed like dcache *)
  sb_ws : int array; (* scratch: words fetched while validating *)
  sb_srcs : int array; (* scratch: per-source instruction batch *)
  (* Batched-counter accumulators for the replay loop. Mutable fields
     rather than [ref]s/closures: with blocks as short as two
     instructions (a compare-and-branch loop body), per-block heap
     cells dominated the allocation profile. *)
  mutable sb_cycles_acc : int;
  mutable sb_icount : int;
  mutable sb_used : int;
  (* Engine counters (see [counters]): bumped per block or per
     fallback, never per replayed instruction. *)
  mutable ctr_blocks_recorded : int;
  mutable ctr_instrs_recorded : int;
  mutable ctr_blocks_replayed : int;
  mutable ctr_instrs_replayed : int;
  mutable ctr_first_word_fallbacks : int;
  mutable ctr_ext_word_fallbacks : int;
  mutable ctr_invalidations : int;
  mutable engine : engine;
  mutable classify : int -> Trace.source;
  mutable halted : bool;
  mutable tracer : (pc:int -> Isa.t -> unit) option;
  (* Periodic instruction hook (the checkpointing runtime's timer):
     fires between instructions once [stats.instructions] reaches
     [hook_due]. [hook_due] is [max_int] when no hook is armed, so the
     hot loops pay one integer compare. Firing points are a function
     of the architectural instruction count only, so both engines
     invoke the hook at identical boundaries. *)
  mutable hook : (t -> unit) option;
  mutable hook_interval : int;
  mutable hook_due : int;
}

(* Flag bit positions in SR. *)
let flag_c = 0
let flag_z = 1
let flag_n = 2
let flag_v = 8

let default_classifier mem addr =
  match Memory.region_of (Memory.map mem) addr with
  | Memory.Sram -> Trace.App_sram
  | Memory.Fram | Memory.Peripheral | Memory.Unmapped -> Trace.App_fram

let create mem =
  let stats = Memory.stats mem in
  {
    regs = Array.make 16 0;
    mem;
    stats;
    traps = Hashtbl.create 8;
    dcache = Array.make 0x8000 None;
    sblocks = Array.make 0x8000 None;
    sb_ws = Array.make 3 0;
    sb_srcs = Array.make Trace.source_count 0;
    sb_cycles_acc = 0;
    sb_icount = 0;
    sb_used = 0;
    ctr_blocks_recorded = 0;
    ctr_instrs_recorded = 0;
    ctr_blocks_replayed = 0;
    ctr_instrs_replayed = 0;
    ctr_first_word_fallbacks = 0;
    ctr_ext_word_fallbacks = 0;
    ctr_invalidations = 0;
    engine = Superblock;
    classify = default_classifier mem;
    halted = false;
    tracer = None;
    hook = None;
    hook_interval = 0;
    hook_due = max_int;
  }

let mem t = t.mem
let stats t = t.stats
let halted t = t.halted
let reg t r = t.regs.(r)
let set_reg t r v = t.regs.(r) <- Word.of_int v

let sb_invalidate t =
  for i = 0 to Array.length t.sblocks - 1 do
    match t.sblocks.(i) with
    | None -> ()
    | Some _ ->
        t.ctr_invalidations <- t.ctr_invalidations + 1;
        t.sblocks.(i) <- None
  done

type counters = {
  blocks_recorded : int;
  instrs_recorded : int;
  blocks_replayed : int;
  instrs_replayed : int;
  first_word_fallbacks : int;
  ext_word_fallbacks : int;
  invalidations : int;
}

let engine_counters t =
  {
    blocks_recorded = t.ctr_blocks_recorded;
    instrs_recorded = t.ctr_instrs_recorded;
    blocks_replayed = t.ctr_blocks_replayed;
    instrs_replayed = t.ctr_instrs_replayed;
    first_word_fallbacks = t.ctr_first_word_fallbacks;
    ext_word_fallbacks = t.ctr_ext_word_fallbacks;
    invalidations = t.ctr_invalidations;
  }

let engine t = t.engine
let set_engine t e =
  if e <> t.engine then begin
    t.engine <- e;
    sb_invalidate t
  end

let engine_name = function Reference -> "reference" | Superblock -> "superblock"

let engine_of_string = function
  | "reference" -> Some Reference
  | "superblock" -> Some Superblock
  | _ -> None

(* Superblocks bake the classifier's verdict into each record, so a new
   classifier invalidates them. (The installed classifiers are pure
   functions of the address, but re-recording is cheap and removes the
   assumption.) *)
let set_classifier t f =
  t.classify <- f;
  sb_invalidate t

(* Optional per-instruction observer (mspdebug-style tracing); set to
   None to disable. Fires after decode, before execution. *)
let set_tracer t f = t.tracer <- f
let register_trap t addr handler = Hashtbl.replace t.traps addr handler

(* Arm (or disarm) the periodic hook. The first firing is [interval]
   instructions from now; each firing re-anchors the next one at the
   instruction count observed *before* the hook body runs, so work the
   hook itself charges counts against its own period. *)
let set_periodic_hook t ~interval f =
  match f with
  | None ->
      t.hook <- None;
      t.hook_interval <- 0;
      t.hook_due <- max_int
  | Some _ ->
      if interval <= 0 then invalid_arg "Cpu.set_periodic_hook: interval <= 0";
      t.hook <- f;
      t.hook_interval <- interval;
      t.hook_due <- t.stats.Trace.instructions + interval

(* Re-anchor an armed hook's next firing at the current instruction
   count (the checkpoint runtime calls this after a post-outage
   restore so a torn period does not fire immediately on resume). *)
let rearm_periodic_hook t =
  if t.hook <> None then
    t.hook_due <- t.stats.Trace.instructions + t.hook_interval

let fire_hook t =
  match t.hook with
  | None -> t.hook_due <- max_int
  | Some f ->
      t.hook_due <- t.stats.Trace.instructions + t.hook_interval;
      f t

let get_flag t bit = Word.bit t.regs.(Isa.sr) bit = 1

let set_flag t bit v =
  let sr = t.regs.(Isa.sr) in
  t.regs.(Isa.sr) <- (if v then sr lor (1 lsl bit) else sr land lnot (1 lsl bit)) land 0xFFFF

(* Charge the cost of one modeled runtime instruction: an instruction
   fetch from [fetch_addr] (normally in the reserved FRAM runtime
   region, so the read cache and wait states apply) plus [cycles]
   unstalled cycles, attributed to [source] in the Fig. 8 breakdown. *)
let charge_runtime_instr t ~source ~fetch_addr ~cycles =
  Memory.begin_instruction t.mem;
  (match t.stats.Trace.sink with
  | None -> ()
  | Some s -> s.Trace.instr (Trace.source_index source) fetch_addr);
  ignore (Memory.read_word t.mem ~purpose:Memory.Ifetch fetch_addr);
  Trace.count_instr t.stats source;
  Trace.add_unstalled t.stats cycles

let width_of = function Isa.W -> 2 | Isa.B -> 1
let val_mask = function Isa.W -> 0xFFFF | Isa.B -> 0xFF
let msb_mask = function Isa.W -> 0x8000 | Isa.B -> 0x80

(* Evaluate a source operand; performs counted data reads.
   Allocation-free: no intermediate closures on the per-instruction
   path. *)
let eval_src t sz src =
  match src with
  | Isa.Sreg r -> t.regs.(r) land val_mask sz
  | Isa.Sidx (x, r) ->
      Memory.read t.mem ~purpose:Memory.Data ~width:(width_of sz)
        (Word.add t.regs.(r) x)
  | Isa.Sind r ->
      Memory.read t.mem ~purpose:Memory.Data ~width:(width_of sz) t.regs.(r)
  | Isa.Sinc r ->
      let addr = t.regs.(r) in
      let v = Memory.read t.mem ~purpose:Memory.Data ~width:(width_of sz) addr in
      let step = if sz = Isa.B && r >= 4 then 1 else 2 in
      t.regs.(r) <- Word.add addr step;
      v
  | Isa.Simm v | Isa.SimmX v -> v land val_mask sz
  | Isa.Sabs a -> Memory.read t.mem ~purpose:Memory.Data ~width:(width_of sz) a
  | Isa.Ssym a -> Memory.read t.mem ~purpose:Memory.Data ~width:(width_of sz) a

(* A destination location as an immediate int, so the hot execute path
   never allocates: values 0-15 name a register, [16 + a] names memory
   address [a]. *)
let dst_location t dst =
  match dst with
  | Isa.Dreg r -> r
  | Isa.Didx (x, r) -> 16 + Word.add t.regs.(r) x
  | Isa.Dabs a -> 16 + a
  | Isa.Dsym a -> 16 + a

let read_loc t sz loc =
  if loc < 16 then t.regs.(loc) land val_mask sz
  else Memory.read t.mem ~purpose:Memory.Data ~width:(width_of sz) (loc - 16)

(* Byte writes to a register clear the upper byte (MSP430 semantics). *)
let write_loc t sz loc v =
  if loc < 16 then t.regs.(loc) <- v land val_mask sz
  else Memory.write t.mem ~width:(width_of sz) (loc - 16) v

let set_nz t sz r =
  set_flag t flag_z (r = 0);
  set_flag t flag_n (r land msb_mask sz <> 0)

(* a + b + carry_in with full flag semantics; returns the result.
   SUB/SUBC/CMP reuse this with b = lnot src (one's complement).
   C, Z, N and V are folded into a single SR update — this runs once
   per arithmetic instruction, and four separate read-modify-writes of
   SR showed up in execution profiles. *)
let arith_flag_mask =
  lnot ((1 lsl flag_c) lor (1 lsl flag_z) lor (1 lsl flag_n) lor (1 lsl flag_v))

let add_with_flags t sz a b carry_in =
  let m = val_mask sz in
  let a = a land m and b = b land m in
  let full = a + b + carry_in in
  let r = full land m in
  let sr = t.regs.(Isa.sr) land arith_flag_mask in
  let sr = if full > m then sr lor (1 lsl flag_c) else sr in
  let sr =
    if lnot (a lxor b) land (a lxor r) land msb_mask sz <> 0 then
      sr lor (1 lsl flag_v)
    else sr
  in
  let sr = if r = 0 then sr lor (1 lsl flag_z) else sr in
  let sr = if r land msb_mask sz <> 0 then sr lor (1 lsl flag_n) else sr in
  t.regs.(Isa.sr) <- sr land 0xFFFF;
  r

(* Decimal (BCD) addition with carry, digit by digit. *)
let dadd_with_flags t sz a b carry_in =
  let digits = match sz with Isa.W -> 4 | Isa.B -> 2 in
  let r = ref 0 and carry = ref carry_in in
  for i = 0 to digits - 1 do
    let da = (a lsr (4 * i)) land 0xF and db = (b lsr (4 * i)) land 0xF in
    let d = da + db + !carry in
    let d, c = if d > 9 then (d - 10, 1) else (d, 0) in
    carry := c;
    r := !r lor (d lsl (4 * i))
  done;
  set_flag t flag_c (!carry = 1);
  set_nz t sz !r;
  !r

let exec_format1 t op sz src dst =
  let sval = eval_src t sz src in
  let loc = dst_location t dst in
  match op with
  | Isa.MOV -> write_loc t sz loc sval
  | Isa.ADD ->
      let d = read_loc t sz loc in
      write_loc t sz loc (add_with_flags t sz d sval 0)
  | Isa.ADDC ->
      let d = read_loc t sz loc in
      let c = if get_flag t flag_c then 1 else 0 in
      write_loc t sz loc (add_with_flags t sz d sval c)
  | Isa.SUB ->
      let d = read_loc t sz loc in
      write_loc t sz loc (add_with_flags t sz d (lnot sval) 1)
  | Isa.SUBC ->
      let d = read_loc t sz loc in
      let c = if get_flag t flag_c then 1 else 0 in
      write_loc t sz loc (add_with_flags t sz d (lnot sval) c)
  | Isa.CMP ->
      let d = read_loc t sz loc in
      ignore (add_with_flags t sz d (lnot sval) 1)
  | Isa.DADD ->
      let d = read_loc t sz loc in
      let c = if get_flag t flag_c then 1 else 0 in
      write_loc t sz loc (dadd_with_flags t sz d sval c)
  | Isa.BIT ->
      let d = read_loc t sz loc in
      let r = d land sval in
      set_nz t sz r;
      set_flag t flag_c (r <> 0);
      set_flag t flag_v false
  | Isa.BIC ->
      let d = read_loc t sz loc in
      write_loc t sz loc (d land lnot sval land val_mask sz)
  | Isa.BIS ->
      let d = read_loc t sz loc in
      write_loc t sz loc (d lor sval)
  | Isa.XOR ->
      let d = read_loc t sz loc in
      let r = (d lxor sval) land val_mask sz in
      set_nz t sz r;
      set_flag t flag_c (r <> 0);
      set_flag t flag_v (d land msb_mask sz <> 0 && sval land msb_mask sz <> 0);
      write_loc t sz loc r
  | Isa.AND ->
      let d = read_loc t sz loc in
      let r = d land sval in
      set_nz t sz r;
      set_flag t flag_c (r <> 0);
      set_flag t flag_v false;
      write_loc t sz loc r

let push_word t v =
  let sp' = Word.sub t.regs.(Isa.sp) 2 in
  t.regs.(Isa.sp) <- sp';
  Memory.write_word t.mem sp' v

let pop_word t =
  let sp = t.regs.(Isa.sp) in
  let v = Memory.read_word t.mem ~purpose:Memory.Data sp in
  t.regs.(Isa.sp) <- Word.add sp 2;
  v

(* Location a format-II operand writes back to, mirroring eval_src's
   address computation (auto-increment already applied by eval_src, so
   we recompute the pre-increment address). Same immediate encoding as
   [dst_location]; -1 means no write-back target (immediate operand). *)
let src_writeback_loc t sz src =
  match src with
  | Isa.Sreg r -> r
  | Isa.Sidx (x, r) -> 16 + Word.add t.regs.(r) x
  | Isa.Sind r -> 16 + t.regs.(r)
  | Isa.Sinc r ->
      let step = if sz = Isa.B && r >= 4 then 1 else 2 in
      16 + Word.sub t.regs.(r) step
  | Isa.Sabs a | Isa.Ssym a -> 16 + a
  | Isa.Simm _ | Isa.SimmX _ -> -1

let exec_format2 t op sz src =
  match op with
  | Isa.PUSH ->
      let v = eval_src t sz src in
      let sp' = Word.sub t.regs.(Isa.sp) 2 in
      t.regs.(Isa.sp) <- sp';
      Memory.write t.mem ~width:(width_of sz) sp' v
  | Isa.CALL ->
      let target = eval_src t Isa.W src in
      (match t.stats.Trace.sink with
      | None -> ()
      | Some s -> s.Trace.call target (-1));
      push_word t t.regs.(Isa.pc);
      t.regs.(Isa.pc) <- target
  | Isa.RRC | Isa.RRA | Isa.SWPB | Isa.SXT -> (
      let v = eval_src t sz src in
      let r =
        match op with
        | Isa.RRC ->
            let c_in = if get_flag t flag_c then msb_mask sz else 0 in
            let r = (v lsr 1) lor c_in in
            set_flag t flag_c (v land 1 = 1);
            set_nz t sz r;
            set_flag t flag_v false;
            r
        | Isa.RRA ->
            let r = (v lsr 1) lor (v land msb_mask sz) in
            set_flag t flag_c (v land 1 = 1);
            set_nz t sz r;
            set_flag t flag_v false;
            r
        | Isa.SWPB -> Word.make_word ~high:(Word.low_byte v) ~low:(Word.high_byte v)
        | Isa.SXT ->
            let r = Word.of_int (Word.byte_to_signed (v land 0xFF)) in
            set_nz t Isa.W r;
            set_flag t flag_c (r <> 0);
            set_flag t flag_v false;
            r
        | Isa.PUSH | Isa.CALL -> assert false
      in
      match src_writeback_loc t sz src with
      | -1 -> Memory.fault "format-II write-back to immediate"
      | loc -> write_loc t sz loc r)

let cond_holds t = function
  | Isa.JNE -> not (get_flag t flag_z)
  | Isa.JEQ -> get_flag t flag_z
  | Isa.JNC -> not (get_flag t flag_c)
  | Isa.JC -> get_flag t flag_c
  | Isa.JN -> get_flag t flag_n
  | Isa.JGE -> get_flag t flag_n = get_flag t flag_v
  | Isa.JL -> get_flag t flag_n <> get_flag t flag_v
  | Isa.JMP -> true

(* Memoized decode. Instruction words are immutable in steady state,
   but the software-caching runtimes copy code into SRAM at run time
   (and power failures wipe it), so every cache hit is
   *self-validating*: the words the entry was decoded from are
   re-fetched through the counted [fetch] and compared. The first
   opcode word fully determines the instruction length (Encoding), so
   a matching first word means the validation fetches exactly the
   words a cold decode would fetch — the counted access pattern, and
   therefore every cycle/energy/stall figure, is bit-identical with
   and without the cache. A mismatch falls back to a fresh decode
   served from the words already fetched, so no access is counted
   twice. No invalidation hooks are needed anywhere. *)
let decode_at t fetch pc0 =
  if pc0 land 1 <> 0 then Encoding.decode ~fetch ~addr:pc0
  else begin
    let slot = (pc0 land 0xFFFF) lsr 1 in
    let w0 = fetch pc0 in
    let ws = Array.make 3 0 in
    ws.(0) <- w0;
    let have = ref 1 in
    let cached =
      match t.dcache.(slot) with
      | Some e when e.dw.(0) = w0 ->
          (* same first word => same length: validate the extension
             words with counted fetches, the exact cold pattern *)
          let n = Array.length e.dw in
          let ok = ref true in
          for i = 1 to n - 1 do
            let w = fetch (pc0 + (2 * i)) in
            ws.(i) <- w;
            incr have;
            if w <> e.dw.(i) then ok := false
          done;
          if !ok then Some (e.dinstr, e.dsize) else None
      | _ -> None
    in
    match cached with
    | Some r -> r
    | None ->
        let fetch' addr =
          let i = ((addr - pc0) land 0xFFFF) lsr 1 in
          if i < !have then ws.(i)
          else begin
            let w = fetch addr in
            if i < 3 then begin
              ws.(i) <- w;
              have := max !have (i + 1)
            end;
            w
          end
        in
        let instr, size = Encoding.decode ~fetch:fetch' ~addr:pc0 in
        t.dcache.(slot) <-
          Some { dw = Array.sub ws 0 (size / 2); dinstr = instr; dsize = size };
        (instr, size)
  end

exception Trap_missing of int

let run_trap t pc =
  match Hashtbl.find_opt t.traps pc with
  | None -> raise (Trap_missing pc)
  | Some handler -> (
      match handler t with
      | Goto pc' -> t.regs.(Isa.pc) <- Word.of_int pc'
      | Halt_machine -> t.halted <- true)

(* Execute a decoded instruction's effect. The caller has already set
   PC to the fall-through address [pc0 + size]; PC-writing instructions
   overwrite it here. *)
let exec_instr t pc0 instr =
  match instr with
  | Isa.I1 (op, sz, src, dst) -> exec_format1 t op sz src dst
  | Isa.I2 (op, sz, src) -> exec_format2 t op sz src
  | Isa.Jcc (c, off) ->
      if cond_holds t c then t.regs.(Isa.pc) <- Word.add pc0 (2 + (2 * off))
  | Isa.RETI ->
      t.regs.(Isa.sr) <- pop_word t;
      t.regs.(Isa.pc) <- pop_word t

(* --- Compiled replay closures ------------------------------------------

   At record time the superblock engine compiles each instruction into
   a closure specialised on its opcode, width and addressing modes:
   registers, masks, immediates, absolute addresses and jump targets
   are resolved once, and replay calls the closure instead of walking
   [exec_instr]'s match over the [Isa] tree. Each closure performs the
   counted accesses of [exec_instr] in the same order and leaves the
   same registers, flags and memory. Shapes without a specialisation
   (format-II rotates and RETI) compile to a call of [exec_instr]
   itself, which stays the reference the engine differential checks
   the closures against. *)

(* The flag-setting ALU of the format-I ops on a masked destination
   value [d] and source value [s], as [exec_format1] computes it;
   returns the result (which CMP and BIT do not write back). *)
let alu t op sz d s =
  match op with
  | Isa.MOV -> s
  | Isa.ADD -> add_with_flags t sz d s 0
  | Isa.ADDC -> add_with_flags t sz d s (t.regs.(Isa.sr) land 1)
  | Isa.SUB | Isa.CMP -> add_with_flags t sz d (lnot s) 1
  | Isa.SUBC -> add_with_flags t sz d (lnot s) (t.regs.(Isa.sr) land 1)
  | Isa.DADD -> dadd_with_flags t sz d s (t.regs.(Isa.sr) land 1)
  | Isa.BIT | Isa.AND ->
      let r = d land s in
      set_nz t sz r;
      set_flag t flag_c (r <> 0);
      set_flag t flag_v false;
      r
  | Isa.BIC -> d land lnot s land val_mask sz
  | Isa.BIS -> d lor s
  | Isa.XOR ->
      let r = (d lxor s) land val_mask sz in
      set_nz t sz r;
      set_flag t flag_c (r <> 0);
      set_flag t flag_v (d land msb_mask sz <> 0 && s land msb_mask sz <> 0);
      r

let[@inline] read_data t width addr =
  Memory.read t.mem ~purpose:Memory.Data ~width addr

(* A source operand's value, as [eval_src] reads it. *)
let compile_src sz src : t -> int =
  let m = val_mask sz and width = width_of sz in
  match src with
  | Isa.Sreg r -> fun t -> t.regs.(r) land m
  | Isa.Simm v | Isa.SimmX v ->
      let v = v land m in
      fun _ -> v
  | Isa.Sidx (x, r) -> fun t -> read_data t width (Word.add t.regs.(r) x)
  | Isa.Sind r -> fun t -> read_data t width t.regs.(r)
  | Isa.Sinc r ->
      let step = if sz = Isa.B && r >= 4 then 1 else 2 in
      fun t ->
        let a = t.regs.(r) in
        let v = read_data t width a in
        t.regs.(r) <- Word.add a step;
        v
  | Isa.Sabs a | Isa.Ssym a -> fun t -> read_data t width a

(* A memory destination's address: [X(base)], or the absolute [off]
   when [base] is negative. Evaluated after the source, so it sees an
   auto-incremented base, as [dst_location] does. *)
let[@inline] dst_addr t base off =
  if base < 0 then off else Word.add t.regs.(base) off

(* A format-I op into the memory destination [dst_addr base off]. *)
let compile_to_memory op sz load base off : t -> unit =
  let width = width_of sz in
  match op with
  | Isa.MOV ->
      fun t ->
        let s = load t in
        Memory.write t.mem ~width (dst_addr t base off) s
  | Isa.CMP | Isa.BIT ->
      fun t ->
        let s = load t in
        ignore (alu t op sz (read_data t width (dst_addr t base off)) s)
  | _ ->
      fun t ->
        let s = load t in
        let a = dst_addr t base off in
        Memory.write t.mem ~width a (alu t op sz (read_data t width a) s)

let compile_format1 op sz src dst : t -> unit =
  let load = compile_src sz src in
  match dst with
  | Isa.Dreg rd -> (
      let m = val_mask sz in
      match op with
      | Isa.MOV -> fun t -> t.regs.(rd) <- load t land m
      | Isa.CMP | Isa.BIT ->
          fun t ->
            let s = load t in
            ignore (alu t op sz (t.regs.(rd) land m) s)
      | _ ->
          fun t ->
            let s = load t in
            t.regs.(rd) <- alu t op sz (t.regs.(rd) land m) s land m)
  | Isa.Didx (x, r) -> compile_to_memory op sz load r x
  | Isa.Dabs a | Isa.Dsym a -> compile_to_memory op sz load (-1) a

(* Compile [instr], located at [pc0], into its replay closure. *)
let compile pc0 instr : t -> unit =
  match instr with
  | Isa.I1 (op, sz, src, dst) -> compile_format1 op sz src dst
  | Isa.I2 (Isa.PUSH, sz, src) ->
      let load = compile_src sz src and width = width_of sz in
      fun t ->
        let v = load t in
        let sp' = Word.sub t.regs.(Isa.sp) 2 in
        t.regs.(Isa.sp) <- sp';
        Memory.write t.mem ~width sp' v
  | Isa.I2 (Isa.CALL, _, src) ->
      let load = compile_src Isa.W src in
      fun t ->
        let target = load t in
        (match t.stats.Trace.sink with
        | None -> ()
        | Some s -> s.Trace.call target (-1));
        push_word t t.regs.(Isa.pc);
        t.regs.(Isa.pc) <- target
  | Isa.Jcc (Isa.JMP, off) ->
      let target = Word.add pc0 (2 + (2 * off)) in
      fun t -> t.regs.(Isa.pc) <- target
  | Isa.Jcc (c, off) ->
      let target = Word.add pc0 (2 + (2 * off)) in
      fun t -> if cond_holds t c then t.regs.(Isa.pc) <- target
  | Isa.I2 _ | Isa.RETI -> fun t -> exec_instr t pc0 instr

(* The compiler's return idiom (MOV @SP+, PC) gives an attached
   profiler the pop side of its shadow call stack. *)
let is_return = function
  | Isa.I1 (Isa.MOV, Isa.W, Isa.Sinc 1, Isa.Dreg 0) -> true
  | _ -> false

let emit_return t =
  match t.stats.Trace.sink with None -> () | Some s -> s.Trace.return ()

(* Execute one instruction (or one trap handler invocation). *)
let step t =
  if t.halted then ()
  else begin
    let pc0 = t.regs.(Isa.pc) in
    if pc0 >= trap_base then run_trap t pc0
    else begin
      Memory.begin_instruction t.mem;
      (* Attribution context for every counted access, stall and cycle
         this instruction causes — including the ifetches the decoder
         is about to issue. *)
      (match t.stats.Trace.sink with
      | None -> ()
      | Some s -> s.Trace.instr (Trace.source_index (t.classify pc0)) pc0);
      let fetch addr = Memory.read_word t.mem ~purpose:Memory.Ifetch addr in
      let instr, size = decode_at t fetch pc0 in
      (match t.tracer with
      | Some observe -> observe ~pc:pc0 instr
      | None -> ());
      Trace.count_instr t.stats (t.classify pc0);
      t.regs.(Isa.pc) <- Word.add pc0 size;
      exec_instr t pc0 instr;
      Trace.add_unstalled t.stats (Cycles.of_instr instr);
      if is_return instr then emit_return t;
      if Memory.halt_requested t.mem then t.halted <- true
    end
  end

(* --- Superblock engine ------------------------------------------------

   The reference [step] loop re-decodes (through the self-validating
   [decode_at]), re-classifies and re-prices every instruction it
   executes. The superblock engine removes that recurring work for
   straight-line runs: the first execution of a run records each
   instruction's decoded form, its words, its cycle cost and its
   source classification into an [sblock]; every later execution
   replays the records. Replay still issues the instruction-word
   fetches through the counted memory path — the exact access pattern
   [decode_at] would issue — so wait states, contention stalls,
   hardware read-cache state and the power-failure access clock are
   bit-identical to the reference engine, and a mismatch (SRAM code
   copied in or modified, post-outage wipe) falls back to a cold
   decode served from the words already fetched, with no access
   counted twice. Instruction and unstalled-cycle counters are
   accumulated per block and flushed at block end — and, so the
   aggregates stay exact mid-run, flushed before any escaping
   exception (power loss, machine fault) propagates.

   An observed run (a sink attached) replays the same blocks through
   [sb_replay_loop_observed], which adds exactly the events [step]
   emits around the compiled effect, in the same order: [instr], the
   fetches through the emitting counted read, one [cycles] per
   instruction and [return] for the return idiom. The compiled
   effects emit their own accesses and [call]. Recording and the cold
   fallback emit the same events. A tracer forces the reference
   loop. *)

let max_block_len = 48

(* Could executing [instr] change the PC (other than falling through)?
   Any such instruction terminates a superblock. [Sinc 0] / [Sreg 0]
   operands never leave the decoder today (PC-relative modes decode to
   [Simm]/[SimmX]/[Ssym]), but they are handled conservatively. *)
let sb_terminates instr =
  match instr with
  | Isa.Jcc _ | Isa.RETI -> true
  | Isa.I2 (Isa.CALL, _, _) -> true
  | Isa.I1 (_, _, src, dst) -> (
      match dst with
      | Isa.Dreg 0 -> true
      | _ -> ( match src with Isa.Sinc 0 -> true | _ -> false))
  | Isa.I2 (_, _, src) -> (
      match src with Isa.Sreg 0 | Isa.Sinc 0 -> true | _ -> false)

(* Cold fallback during replay: the validation fetch at [ipc] found
   words that differ from the recorded ones. [t.sb_ws.(0 .. have-1)]
   hold the words already fetched (counted); decode from them, fetch
   any further words the new encoding needs, and execute with the
   reference per-instruction accounting. Mirrors [decode_at]'s
   mismatch path: no access is counted twice. The replay loop has
   already emitted the instruction's [instr] event. *)
let sb_cold_exec t ipc have0 =
  let ws = t.sb_ws in
  let have = ref have0 in
  let fetch' addr =
    let k = ((addr - ipc) land 0xFFFF) lsr 1 in
    if k < !have then ws.(k)
    else begin
      let w = Memory.read_word t.mem ~purpose:Memory.Ifetch addr in
      if k < 3 then begin
        ws.(k) <- w;
        have := max !have (k + 1)
      end;
      w
    end
  in
  let instr, size = Encoding.decode ~fetch:fetch' ~addr:ipc in
  Trace.count_instr t.stats (t.classify ipc);
  t.regs.(Isa.pc) <- Word.add ipc size;
  exec_instr t ipc instr;
  Trace.add_unstalled t.stats (Cycles.of_instr instr);
  if is_return instr then emit_return t;
  if Memory.halt_requested t.mem then t.halted <- true

(* Record a fresh superblock starting at [pc0] by executing up to
   [fuel] instructions with reference accounting and events (decode
   through [decode_at], per-instruction counters), capturing each decoded
   instruction. Returns the number of instructions executed. A partial
   block is stored even when an exception escapes mid-instruction:
   the completed records are a valid straight-line prefix. *)
let sb_record t pc0 fuel =
  let buf = ref [] in
  let nrec = ref 0 in
  let used = ref 0 in
  let store () =
    t.ctr_instrs_recorded <- t.ctr_instrs_recorded + !used;
    if !nrec > 0 then begin
      let arr = Array.of_list (List.rev !buf) in
      t.sblocks.((pc0 land 0xFFFF) lsr 1) <- Some { sb_instrs = arr };
      t.ctr_blocks_recorded <- t.ctr_blocks_recorded + 1
    end
  in
  (try
     let stop = ref false in
     let cur_pc = ref pc0 in
     while (not !stop) && !used < fuel && !nrec < max_block_len do
       let ipc = !cur_pc in
       Memory.begin_instruction t.mem;
       let source = t.classify ipc in
       (match t.stats.Trace.sink with
       | None -> ()
       | Some s -> s.Trace.instr (Trace.source_index source) ipc);
       let words = Array.make 3 0 in
       let nw = ref 0 in
       let fetch addr =
         let w = Memory.read_word t.mem ~purpose:Memory.Ifetch addr in
         if !nw < 3 then begin
           words.(!nw) <- w;
           incr nw
         end;
         w
       in
       let instr, size = decode_at t fetch ipc in
       Trace.count_instr t.stats source;
       t.regs.(Isa.pc) <- Word.add ipc size;
       exec_instr t ipc instr;
       Trace.add_unstalled t.stats (Cycles.of_instr instr);
       let ret = is_return instr in
       if ret then emit_return t;
       incr used;
       let fetch_kind =
         let map = Memory.map t.mem in
         let kind_of addr =
           match Memory.region_of map addr with
           | Memory.Sram -> 0
           | Memory.Fram -> 1
           | Memory.Peripheral | Memory.Unmapped -> 2
         in
         let k = kind_of ipc in
         let rec all j =
           if j >= size / 2 then k
           else if kind_of (ipc + (2 * j)) = k then all (j + 1)
           else 2
         in
         all 1
       in
       buf :=
         {
           si_pc = ipc;
           si_words = Array.sub words 0 (size / 2);
           si_nwords = size / 2;
           si_run = compile ipc instr;
           si_next = Word.add ipc size;
           si_cycles = Cycles.of_instr instr;
           si_src = Trace.source_index source;
           si_ret = ret;
           si_fetch = fetch_kind;
         }
         :: !buf;
       incr nrec;
       if Memory.halt_requested t.mem then begin
         t.halted <- true;
         stop := true
       end
       else if sb_terminates instr then stop := true
       else begin
         cur_pc := Word.add ipc size;
         (* Belt and braces: if an instruction outside [sb_terminates]
            ever moved the PC, end the block here so replay stays
            faithful. *)
         if t.regs.(Isa.pc) <> !cur_pc then stop := true
         else if !cur_pc >= trap_base then stop := true
       end
     done
   with e ->
     store ();
     raise e);
  store ();
  !used

(* Flush the replay loop's batched counters into the aggregate stats.
   Idempotent (the accumulators are zeroed), so flushing both on the
   cold-fallback path and at block end — or once more after an escaping
   exception — never double-counts. The batch holds exactly the
   instructions that ran from the record, so it also feeds the
   engine's replayed-instruction counter. *)
let sb_flush t =
  let stats = t.stats in
  t.ctr_instrs_replayed <- t.ctr_instrs_replayed + t.sb_icount;
  stats.Trace.unstalled_cycles <- stats.Trace.unstalled_cycles + t.sb_cycles_acc;
  stats.Trace.instructions <- stats.Trace.instructions + t.sb_icount;
  t.sb_cycles_acc <- 0;
  t.sb_icount <- 0;
  let srcs = t.sb_srcs in
  for k = 0 to Array.length srcs - 1 do
    if srcs.(k) <> 0 then begin
      stats.Trace.instr_by_source.(k) <-
        stats.Trace.instr_by_source.(k) + srcs.(k);
      srcs.(k) <- 0
    end
  done

(* Validate [si]'s extension words with counted fetches. Every
   extension word is fetched even after a mismatch — the exact
   [decode_at] hit pattern — and stashed in [t.sb_ws] for the cold
   fallback. Top-level recursion, not a local closure: this runs per
   replayed instruction. *)
let rec sb_validate_ext t si k ok =
  if k >= si.si_nwords then ok
  else begin
    let a = si.si_pc + (2 * k) in
    let w =
      if si.si_fetch = 0 then Memory.fetch_word_sram t.mem a
      else if si.si_fetch = 1 then Memory.fetch_word_fram t.mem a
      else Memory.read_word t.mem ~purpose:Memory.Ifetch a
    in
    t.sb_ws.(k) <- w;
    sb_validate_ext t si (k + 1) (ok && w = si.si_words.(k))
  end

(* A validation fetch found changed words: flush the batch, drop the
   block and execute the instruction cold from the [have] words already
   fetched. *)
let sb_fallback t si slot have =
  sb_flush t;
  t.sblocks.(slot) <- None;
  t.ctr_invalidations <- t.ctr_invalidations + 1;
  sb_cold_exec t si.si_pc have;
  t.sb_used <- t.sb_used + 1

(* The replay loop proper. [slot] is the block's own cache slot, for
   invalidation on a validation mismatch. Allocation-free: state lives
   in [t]'s accumulator fields, not captured refs. *)
let rec sb_replay_loop t instrs n slot i fuel =
  if i >= n || fuel <= 0 then ()
  else begin
    let si = Array.unsafe_get instrs i in
    Memory.begin_instruction t.mem;
    let w0 =
      if si.si_fetch = 0 then Memory.fetch_word_sram t.mem si.si_pc
      else if si.si_fetch = 1 then Memory.fetch_word_fram t.mem si.si_pc
      else Memory.read_word t.mem ~purpose:Memory.Ifetch si.si_pc
    in
    if w0 = Array.unsafe_get si.si_words 0 then begin
      (* Same first word => same length: validate the extension words
         with counted fetches, the exact cold pattern. *)
      if si.si_nwords = 1 || sb_validate_ext t si 1 true then begin
        let srcs = t.sb_srcs in
        let k = si.si_src in
        srcs.(k) <- srcs.(k) + 1;
        t.sb_icount <- t.sb_icount + 1;
        t.sb_used <- t.sb_used + 1;
        t.regs.(Isa.pc) <- si.si_next;
        si.si_run t;
        t.sb_cycles_acc <- t.sb_cycles_acc + si.si_cycles;
        if Memory.halt_requested t.mem then t.halted <- true
        else sb_replay_loop t instrs n slot (i + 1) (fuel - 1)
      end
      else begin
        (* Extension word changed under us: same length, so every word
           is already fetched; decode fresh from them. *)
        t.sb_ws.(0) <- w0;
        t.ctr_ext_word_fallbacks <- t.ctr_ext_word_fallbacks + 1;
        sb_fallback t si slot si.si_nwords
      end
    end
    else begin
      (* First word changed: new length, fetch on demand. *)
      t.sb_ws.(0) <- w0;
      t.ctr_first_word_fallbacks <- t.ctr_first_word_fallbacks + 1;
      sb_fallback t si slot 1
    end
  end

(* [sb_validate_ext] through the emitting counted read: the observed
   loop's fetches must reach the sink, which the specialised fetches
   skip. *)
let rec sb_validate_ext_observed t si k ok =
  if k >= si.si_nwords then ok
  else begin
    let w =
      Memory.read_word t.mem ~purpose:Memory.Ifetch (si.si_pc + (2 * k))
    in
    t.sb_ws.(k) <- w;
    sb_validate_ext_observed t si (k + 1) (ok && w = si.si_words.(k))
  end

(* [sb_replay_loop] for an observed run, with the events [step] emits
   around the compiled effect in [exec_instr]'s order: [instr] before
   the validation fetches, the fetches themselves, then one [cycles]
   and the return idiom's [return] after the effect. Unstalled cycles
   go through [Trace.add_unstalled] per instruction rather than the
   batch, so a sink that reads the cycle total sees it exact. *)
let rec sb_replay_loop_observed t instrs n slot i fuel =
  if i >= n || fuel <= 0 then ()
  else begin
    let si = Array.unsafe_get instrs i in
    Memory.begin_instruction t.mem;
    (match t.stats.Trace.sink with
    | None -> ()
    | Some s -> s.Trace.instr si.si_src si.si_pc);
    let w0 = Memory.read_word t.mem ~purpose:Memory.Ifetch si.si_pc in
    if w0 = Array.unsafe_get si.si_words 0 then begin
      if si.si_nwords = 1 || sb_validate_ext_observed t si 1 true then begin
        let srcs = t.sb_srcs in
        let k = si.si_src in
        srcs.(k) <- srcs.(k) + 1;
        t.sb_icount <- t.sb_icount + 1;
        t.sb_used <- t.sb_used + 1;
        t.regs.(Isa.pc) <- si.si_next;
        si.si_run t;
        Trace.add_unstalled t.stats si.si_cycles;
        if si.si_ret then emit_return t;
        if Memory.halt_requested t.mem then t.halted <- true
        else sb_replay_loop_observed t instrs n slot (i + 1) (fuel - 1)
      end
      else begin
        t.sb_ws.(0) <- w0;
        t.ctr_ext_word_fallbacks <- t.ctr_ext_word_fallbacks + 1;
        sb_fallback t si slot si.si_nwords
      end
    end
    else begin
      t.sb_ws.(0) <- w0;
      t.ctr_first_word_fallbacks <- t.ctr_first_word_fallbacks + 1;
      sb_fallback t si slot 1
    end
  end

(* Replay the cached superblock, executing at most [fuel]
   instructions, on the observed loop when [observed]. Per
   instruction: validate the recorded words with counted fetches (the
   exact [decode_at] pattern), batch the instruction/cycle counters,
   execute. Returns the number of instructions executed. *)
let sb_replay ~observed t blk fuel =
  let instrs = blk.sb_instrs in
  t.sb_cycles_acc <- 0;
  t.sb_icount <- 0;
  t.sb_used <- 0;
  let n = Array.length instrs in
  let slot = (instrs.(0).si_pc land 0xFFFF) lsr 1 in
  t.ctr_blocks_replayed <- t.ctr_blocks_replayed + 1;
  (try
     if observed then sb_replay_loop_observed t instrs n slot 0 fuel
     else sb_replay_loop t instrs n slot 0 fuel
   with e ->
     sb_flush t;
     raise e);
  sb_flush t;
  t.sb_used

(* Execute from [pc0] (even, below the trap base) with the superblock
   engine; returns the number of instructions executed (>= 1 given
   fuel >= 1, so the run loop always makes progress). *)
let sb_exec ~observed t pc0 fuel =
  match t.sblocks.((pc0 land 0xFFFF) lsr 1) with
  | Some blk when blk.sb_instrs.(0).si_pc = pc0 -> sb_replay ~observed t blk fuel
  | _ -> sb_record t pc0 fuel

(* Power-on reset: architectural state (registers, halt latch) is
   volatile and clears; the trap table and classifier describe the
   runtime image in FRAM and survive. The caller wipes SRAM, reboots
   the runtime's FRAM metadata and reloads SP/PC. *)
let power_reset t =
  Array.fill t.regs 0 16 0;
  t.halted <- false

type fault_info = { fault_pc : int; fault_msg : string }

type run_outcome =
  | Halted
  | Fuel_exhausted
  | Faulted of fault_info
  | Power_lost

let outcome_name = function
  | Halted -> "halted"
  | Fuel_exhausted -> "out of fuel"
  | Faulted { fault_pc; fault_msg } ->
      Printf.sprintf "fault near pc 0x%04X: %s" fault_pc fault_msg
  | Power_lost -> "power lost"

(* Run until halt, fuel exhaustion, a machine fault or a power
   failure. Faults that would otherwise escape as OCaml exceptions —
   memory faults, missing trap vectors, runtime invariant failures —
   come back as a structured [Faulted] so no simulated failure mode
   crashes the host program.

   Dispatches between the two engines: the reference step loop, and
   the superblock engine when selected and no tracer is attached (a
   tracer needs the decoded instruction, which only [step] holds). The
   superblock engine takes its observed loop when a sink is attached,
   chosen once per run. Both engines charge one fuel unit per
   instruction or trap invocation and yield identical counters,
   memory, register state and event streams. *)
let run ?(fuel = max_int) t =
  let observed = Trace.has_sink t.stats in
  let rec ref_loop fuel =
    if t.halted then Halted
    else if fuel <= 0 then Fuel_exhausted
    else begin
      if t.stats.Trace.instructions >= t.hook_due then fire_hook t;
      step t;
      ref_loop (fuel - 1)
    end
  in
  let rec sb_loop fuel =
    if t.halted then Halted
    else if fuel <= 0 then Fuel_exhausted
    else begin
      if t.stats.Trace.instructions >= t.hook_due then fire_hook t;
      let pc0 = t.regs.(Isa.pc) in
      if pc0 >= trap_base || pc0 land 1 <> 0 then begin
        step t;
        sb_loop (fuel - 1)
      end
      else begin
        (* Never execute a block across the hook boundary: cap the
           block's fuel so control returns to the loop — and the hook
           fires — at exactly the instruction count the reference loop
           would fire it at. *)
        let cap = min fuel (t.hook_due - t.stats.Trace.instructions) in
        sb_loop (fuel - sb_exec ~observed t pc0 cap)
      end
    end
  in
  let faulted msg = Faulted { fault_pc = t.regs.(Isa.pc); fault_msg = msg } in
  try
    if t.engine = Superblock && t.tracer = None then sb_loop fuel
    else ref_loop fuel
  with
  | Memory.Power_loss -> Power_lost
  | Memory.Fault msg -> faulted msg
  | Trap_missing pc -> faulted (Printf.sprintf "no trap handler at 0x%04X" pc)
  | Encoding.Decode_error w -> faulted (Printf.sprintf "undecodable word 0x%04X" w)
  | Failure msg -> faulted msg
