module Cpu = Msp430.Cpu
module Memory = Msp430.Memory
module Modeled = Msp430.Modeled
module Trace = Msp430.Trace
module Isa = Msp430.Isa

(* Runtime for the block-cache baseline: fixed-size SRAM slots, a
   djb2 open-addressing hash table in FRAM mapping NVM block address
   to cached copy, block chaining by rewriting the branch extension
   word inside the cached source block, and a full flush when the
   slots are exhausted (the highest-performance configuration of the
   original design, per the paper §4). *)

type table_addrs = {
  a_cfi : int;
  a_cfitab : int;
  a_blocktab : int;
  a_hash : int;
}

type stats = {
  mutable misses : int; (* runtime entries via CFI stubs *)
  mutable block_loads : int; (* blocks copied into slots *)
  mutable chains : int;
  mutable flushes : int;
  mutable returns : int;
  mutable hash_probes : int;
  mutable words_copied : int;
}

type t = {
  mem : Memory.t;
  cpu : Cpu.t;
  options : Config.options;
  manifest : Transform.manifest;
  addrs : table_addrs;
  block_index : (int, int * int) Hashtbl.t; (* nvm addr -> (index, size) *)
  slot_owners : int array; (* slot index -> NVM leader addr, -1 if empty *)
  mutable next_slot : int;
  stats : stats;
  runtime : Modeled.region;
  memcpy : Modeled.region;
}

let stats t = t.stats
let slot_bytes t = t.manifest.Transform.slot_size
let cache_bytes t = t.manifest.Transform.num_slots * t.manifest.Transform.slot_size

(* Host-side dynamic symbolizer for the observability layer: translate
   a pc inside an SRAM slot back to the NVM address of the cached
   block's corresponding word, or [default] when no filled slot holds
   it. Pure inspection — no counted accesses. *)
let home_or t addr ~default =
  let base = t.options.Config.cache_base in
  let slot_size = t.manifest.Transform.slot_size in
  let span = t.manifest.Transform.num_slots * slot_size in
  if addr < base || addr >= base + span then default
  else
    let slot = (addr - base) / slot_size in
    let owner = t.slot_owners.(slot) in
    if owner < 0 then default
    else owner + (addr - (base + (slot * slot_size)))

let cached_block_at t addr =
  let home = home_or t addr ~default:(-1) in
  if home < 0 then None else Some home

let read_word t addr = Memory.read_word t.mem ~purpose:Memory.Data addr
let write_word t addr v = Memory.write_word t.mem addr v

(* --- Hash table in simulated FRAM ------------------------------------ *)

let djb2 key =
  let h = 5381 in
  let h = ((h * 33) + (key land 0xFF)) land 0xFFFF in
  ((h * 33) + ((key lsr 8) land 0xFF)) land 0xFFFF

let bucket_addr t i = t.addrs.a_hash + (4 * i)

let hash_lookup t key =
  let mask = t.manifest.Transform.hash_buckets - 1 in
  let rec probe i steps =
    if steps > t.manifest.Transform.hash_buckets then None
    else begin
      Modeled.charge t.runtime Costs.hash_probe_instrs;
      t.stats.hash_probes <- t.stats.hash_probes + 1;
      let k = read_word t (bucket_addr t i) in
      if k = 0 then None
      else if k = key then Some (read_word t (bucket_addr t i + 2))
      else probe ((i + 1) land mask) (steps + 1)
    end
  in
  probe (djb2 key land mask) 0

let hash_insert t key value =
  let mask = t.manifest.Transform.hash_buckets - 1 in
  let rec probe i =
    Modeled.charge t.runtime Costs.hash_insert_instrs;
    let k = read_word t (bucket_addr t i) in
    if k = 0 || k = key then begin
      write_word t (bucket_addr t i) key;
      write_word t (bucket_addr t i + 2) value
    end
    else probe ((i + 1) land mask)
  in
  probe (djb2 key land mask)

let flush t =
  t.stats.flushes <- t.stats.flushes + 1;
  Modeled.emit t.mem Trace.Cache_flush;
  Modeled.charge t.runtime Costs.flush_base_instrs;
  for i = 0 to t.manifest.Transform.hash_buckets - 1 do
    Modeled.charge t.runtime Costs.flush_per_bucket_instrs;
    write_word t (bucket_addr t i) 0
  done;
  Array.fill t.slot_owners 0 (Array.length t.slot_owners) (-1);
  t.next_slot <- 0

(* --- Block loading ---------------------------------------------------- *)

let load_block t ~nvm =
  let index, size =
    match Hashtbl.find_opt t.block_index nvm with
    | Some p -> p
    | None ->
        failwith
          (Printf.sprintf "block cache: 0x%04X is not a block leader" nvm)
  in
  (* read the blocktab entry (address check + size) *)
  Modeled.charge t.runtime 2;
  ignore (read_word t (t.addrs.a_blocktab + (4 * index)));
  ignore (read_word t (t.addrs.a_blocktab + (4 * index) + 2));
  if t.next_slot >= t.manifest.Transform.num_slots then flush t;
  Modeled.emit t.mem (Trace.Block_load { nvm });
  let slot = t.options.Config.cache_base
             + (t.next_slot * t.manifest.Transform.slot_size)
  in
  t.slot_owners.(t.next_slot) <- nvm;
  t.next_slot <- t.next_slot + 1;
  Modeled.copy t.memcpy ~src:nvm ~dst:slot ~words:((size + 1) / 2)
    ~on_word:(fun () -> t.stats.words_copied <- t.stats.words_copied + 1);
  hash_insert t nvm slot;
  t.stats.block_loads <- t.stats.block_loads + 1;
  slot

let lookup_or_load t ~nvm =
  match hash_lookup t nvm with
  | Some slot -> slot
  | None -> load_block t ~nvm

(* --- Trap entries ------------------------------------------------------ *)

(* CFI stub entry: cache the target block and chain the source CFI. *)
let on_miss t _cpu =
  t.stats.misses <- t.stats.misses + 1;
  Modeled.emit t.mem (Trace.Miss_enter { runtime = "block" });
  Modeled.charge t.runtime Costs.runtime_entry_instrs;
  let cfi_id = read_word t t.addrs.a_cfi in
  Modeled.charge t.runtime Costs.cfitab_instrs;
  let entry = t.addrs.a_cfitab + (6 * cfi_id) in
  let target = read_word t entry in
  let owner = read_word t (entry + 2) in
  let br_off = read_word t (entry + 4) in
  let slot = lookup_or_load t ~nvm:target in
  (* chain: if the source block is cached, point its BR at the copy *)
  (match hash_lookup t owner with
  | Some owner_slot ->
      Modeled.charge t.runtime Costs.chain_instrs;
      (* the BR's extension word sits 2 bytes after the opcode *)
      write_word t (owner_slot + br_off + 2) slot;
      t.stats.chains <- t.stats.chains + 1
  | None -> ());
  Modeled.charge t.runtime Costs.runtime_exit_instrs;
  Modeled.emit t.mem
    (Trace.Miss_exit { runtime = "block"; disposition = "cached"; fid = (-1) });
  Cpu.Goto slot

(* Return entry: resume at the (NVM) return address through the cache. *)
let on_return t cpu =
  t.stats.returns <- t.stats.returns + 1;
  Modeled.emit t.mem (Trace.Miss_enter { runtime = "block" });
  Modeled.charge t.runtime Costs.return_entry_instrs;
  let sp = Cpu.reg cpu Isa.sp in
  let nvm = read_word t sp in
  Cpu.set_reg cpu Isa.sp (sp + 2);
  let slot = lookup_or_load t ~nvm in
  Modeled.charge t.runtime Costs.runtime_exit_instrs;
  Modeled.emit t.mem
    (Trace.Miss_exit { runtime = "block"; disposition = "return"; fid = (-1) });
  Cpu.Goto slot

(* Power-loss recovery, mirroring Swapram.Runtime.reboot: the SRAM
   slots (and every chained BR word patched into them) evaporate, but
   the FRAM hash table still maps NVM block addresses to the vanished
   copies. Restore the hash table and the CFI id word to their
   post-link (empty/zero) values and reset the volatile slot cursor.
   The restore writes are counted FRAM accesses, so an armed power
   trigger can tear the reboot itself; the routine is idempotent. *)
let reboot t ~image =
  t.next_slot <- 0;
  Array.fill t.slot_owners 0 (Array.length t.slot_owners) (-1);
  Modeled.reset t.runtime;
  Modeled.reset t.memcpy;
  Masm.Assembler.restore_items image t.mem [ Config.sym_cfi; Config.sym_hash ]

(* Runtime-critical FRAM windows for adversarial fault injection —
   dying on an access in one of these regions is dying inside the
   miss handler, mid-memcpy, or between hash-table half-updates. *)
let critical_windows t ~image =
  let named name (r : Modeled.region) =
    (name, r.Modeled.base, r.Modeled.base + r.Modeled.size)
  in
  [
    named "runtime" t.runtime;
    named "memcpy" t.memcpy;
    ( "hash",
      t.addrs.a_hash,
      t.addrs.a_hash + Masm.Assembler.item_size image Config.sym_hash );
    ("cfi", t.addrs.a_cfi, t.addrs.a_cfi + 2);
  ]

let table_addrs_of_image image =
  let look = Masm.Assembler.lookup image in
  {
    a_cfi = look Config.sym_cfi;
    a_cfitab = look Config.sym_cfitab;
    a_blocktab = look Config.sym_blocktab;
    a_hash = look Config.sym_hash;
  }

let install ~options ~manifest ~image (system : Msp430.Platform.system) =
  let addrs = table_addrs_of_image image in
  let mem = system.Msp430.Platform.memory in
  let region sym size =
    Modeled.region mem ~base:(Masm.Assembler.lookup image sym) ~size
  in
  let block_index = Hashtbl.create 256 in
  Array.iteri
    (fun i (leader, size) ->
      let addr = Masm.Assembler.lookup image leader in
      Hashtbl.replace block_index addr (i, size))
    manifest.Transform.blocks;
  let t =
    {
      mem;
      cpu = system.Msp430.Platform.cpu;
      options;
      manifest;
      addrs;
      block_index;
      slot_owners = Array.make manifest.Transform.num_slots (-1);
      next_slot = 0;
      stats =
        {
          misses = 0;
          block_loads = 0;
          chains = 0;
          flushes = 0;
          returns = 0;
          hash_probes = 0;
          words_copied = 0;
        };
      runtime =
        region Config.sym_runtime manifest.Transform.runtime_bytes Trace.Handler;
      memcpy = region Config.sym_memcpy manifest.Transform.memcpy_bytes Trace.Memcpy;
    }
  in
  Cpu.register_trap system.Msp430.Platform.cpu Config.miss_trap (on_miss t);
  Cpu.register_trap system.Msp430.Platform.cpu Config.return_trap (on_return t);
  Cpu.set_classifier system.Msp430.Platform.cpu
    (Modeled.classifier ~handler:t.runtime ~memcpy:t.memcpy);
  (* A fetch's home is the block's NVM word, a call's unit the slot-sized
     NVM line of the block it enters. Allocation-free: they run per
     fetch and per call of an observed run. *)
  let stats = Memory.stats mem and slot = slot_bytes t in
  stats.Trace.ifetch_home <- Some (fun a -> home_or t a ~default:a);
  stats.Trace.call_unit <-
    Some
      (fun a ->
        let home = home_or t a ~default:(-1) in
        if home < 0 then -1 else home / slot);
  t
