(* Per-phase instruction counts of the modeled block-cache runtime,
   analogous to Swapram.Costs. Each instruction is charged through
   {!Msp430.Modeled} (one counted fetch from the reserved FRAM runtime
   region plus [Modeled.cycles_per_instr] unstalled cycles), which
   also owns the copy loop's per-word count; hash probes, table
   lookups, chain rewrites and the copy loop move their data through
   counted simulated-memory accesses. *)

let runtime_entry_instrs = 8 (* save registers, load CFI id *)
let cfitab_instrs = 4 (* index the CFI table, load 3 fields *)
let hash_probe_instrs = 5 (* djb2 step + bucket compare per probe *)
let hash_insert_instrs = 4
let chain_instrs = 3 (* rewrite the source CFI in its cached copy *)
let flush_base_instrs = 12
let flush_per_bucket_instrs = 1
let runtime_exit_instrs = 6
let return_entry_instrs = 6 (* pop return address, derive block id *)
