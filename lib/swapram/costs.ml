(* Cost model for the modeled runtime (miss handler + memcpy).

   Every modeled runtime instruction is charged through
   {!Msp430.Modeled} (one counted fetch from the reserved FRAM
   runtime region plus [Modeled.cycles_per_instr] unstalled cycles;
   the copy loop's [Modeled.memcpy_per_word_instrs] per word), and all
   data the runtime touches (funcId, redirection entries, active
   counters, function table, relocation tables, the code bytes
   themselves) moves through counted simulated-memory accesses.

   The constants below are instruction-count estimates for each phase
   of the handler in Figure 4, sized against a hand-sketched MSP430
   implementation of the same logic. They are deliberately simple and
   documented so ablations can vary them. *)

(* Save argument registers R12-R15, load funcId, index the function
   table, load nvm address / size / reloc range. *)
let handler_entry_instrs = 12

(* Per cache-structure entry examined while planning a placement. *)
let scan_entry_instrs = 4

(* Per flagged function: read its active counter and test it. *)
let active_check_instrs = 3

(* Per evicted function: unlink node, reset its redirection entry. *)
let evict_instrs = 6

(* Per relocation entry recomputed (on caching and on eviction):
   load offset, add base, store slot. *)
let reloc_instrs = 5

(* Update redirection entry, restore registers, branch to the copy. *)
let handler_exit_instrs = 10

(* Abort path (§3.3.3): unwind flagging and branch to the NVM copy. *)
let abort_instrs = 6

(* --- Profile-guided placement model ({!Pgo}) ------------------------- *)

(* The PGO pass ranks candidates with the estimates below; the
   simulator, not this model, produces every reported number. All
   figures are integral so placement is exactly deterministic. *)

(* Estimated cycles one miss-handler invocation spends copying in a
   [size]-byte function: entry + exit instruction budgets above, plus
   per word the copy-loop instructions and roughly 6 cycles for the
   wait-stated FRAM read and the SRAM write. *)
let pgo_miss_cycles ~size =
  let open Msp430.Modeled in
  let words = (size + 1) / 2 in
  (cycles_per_instr * (handler_entry_instrs + handler_exit_instrs))
  + (words * ((memcpy_per_word_instrs * cycles_per_instr) + 6))

(* Estimated cycles one rewritten call site spends on the
   4-instruction redirection protocol (Fig. 3): two active-counter
   read-modify-writes, the funcId store, the indirect call through
   the redirection entry, all ~9 instruction words fetched from
   wait-stated FRAM. A direct call to a pinned SRAM anchor replaces
   this with a single 2-word CALL, saving roughly this much per
   dynamic call. *)
let pgo_call_protocol_cycles = 22

(* Extra cycles, in tenths per executed instruction, for running a
   function from FRAM instead of SRAM: the read cache absorbs most of
   the raw 3-cycle wait-state penalty on sequential fetches. Used to
   decide when cold code should stay FRAM-resident — copying it in
   must beat this. *)
let pgo_fram_penalty_tenths = 12

let pgo_fram_penalty ~instrs = instrs * pgo_fram_penalty_tenths / 10
