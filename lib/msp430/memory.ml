(* Simulated memory system: 64 KiB address space with an SRAM region, an
   FRAM region behind the hardware read cache and wait-state model, and
   a few peripherals. Every CPU-issued access is counted into a
   {!Trace.t}; wait states accrue as stall cycles.

   Timing model (documented in DESIGN.md):
   - an FRAM read that misses the read cache costs [wait_states] stall
     cycles (3 at 24 MHz on the FR2355, 0 at/below 8 MHz);
   - FRAM writes always pay [wait_states] (the cache is read-only);
   - the second and subsequent FRAM accesses issued by a single
     instruction cost one extra stall cycle each, independent of clock
     frequency — modelling the access-contention bottleneck at the
     FRAM controller that makes unified-memory execution slow even at
     8 MHz (paper §2.2, Fig. 1). *)

type region = Sram | Fram | Peripheral | Unmapped

exception Fault of string

let fault fmt = Format.kasprintf (fun s -> raise (Fault s)) fmt

(* Power failure, for the fault-injection subsystem: an armed trigger
   cuts the supply on a chosen counted access, which raises
   {!Power_loss} *before* that access takes effect. Because every
   modeled instruction — application fetches and the runtimes'
   charged handler/memcpy instructions alike — flows through counted
   accesses, triggers can land inside the miss handler, in the middle
   of a memcpy, or between the two halves of a metadata update,
   leaving FRAM state torn exactly as a real outage would. *)

exception Power_loss

type power_trigger =
  | After_accesses of int
      (* die on the n-th counted access from arming time *)
  | On_region_access of { lo : int; hi : int; skip : int }
      (* die on the skip-th counted access with lo <= addr < hi *)

type armed = { mutable countdown : int; window : (int * int) option }

type map = {
  sram_lo : int;
  sram_hi : int; (* inclusive *)
  fram_lo : int;
  fram_hi : int;
}

let uart_tx_addr = 0x0100
let gpio_out_addr = 0x0102
let halt_addr = 0x0104
let fault_addr = 0x0106

let region_of map addr =
  if addr >= map.sram_lo && addr <= map.sram_hi then Sram
  else if addr >= map.fram_lo && addr <= map.fram_hi then Fram
  else if addr >= 0x0100 && addr <= 0x01FF then Peripheral
  else Unmapped

type purpose = Ifetch | Data

type t = {
  map : map;
  bytes : Bytes.t;
  cache : Hwcache.t;
  wait_states : int;
  stats : Trace.t;
  mutable fram_accesses_this_instr : int;
  mutable halt_requested : bool;
  uart : Buffer.t;
  mutable gpio : int;
  mutable access_ticks : int; (* total counted accesses, the power clock *)
  mutable power : armed option;
}

let contention_penalty = 1

let create ?(wait_states = 3) ~map ~stats () =
  {
    map;
    bytes = Bytes.make 0x10000 '\000';
    cache = Hwcache.create ();
    wait_states;
    stats;
    fram_accesses_this_instr = 0;
    halt_requested = false;
    uart = Buffer.create 256;
    gpio = 0;
    access_ticks = 0;
    power = None;
  }

let stats t = t.stats
let map t = t.map
let halt_requested t = t.halt_requested
let uart_output t = Buffer.contents t.uart
let begin_instruction t = t.fram_accesses_this_instr <- 0
let access_ticks t = t.access_ticks

let arm_power_trigger t trigger =
  t.power <-
    (match trigger with
    | None -> None
    | Some (After_accesses n) -> Some { countdown = max 1 n; window = None }
    | Some (On_region_access { lo; hi; skip }) ->
        Some { countdown = max 1 skip; window = Some (lo, hi) })

let power_armed t = t.power <> None

(* Count down an armed trigger for a counted access to [addr]; raises
   {!Power_loss} when it fires. The slow half of [power_tick], kept out
   of line so the unarmed fast path stays small. *)
let[@inline never] power_countdown t a addr =
  let in_window =
    match a.window with None -> true | Some (lo, hi) -> addr >= lo && addr < hi
  in
  if in_window then begin
    a.countdown <- a.countdown - 1;
    if a.countdown <= 0 then begin
      t.power <- None;
      raise Power_loss
    end
  end

(* Advance the power clock for a counted access to [addr]. Called
   before the access takes effect, so the dying access never
   completes. *)
let[@inline] power_tick t addr =
  t.access_ticks <- t.access_ticks + 1;
  match t.power with None -> () | Some a -> power_countdown t a addr

(* The survivable consequences of an outage, beyond the SRAM loss the
   caller inflicts: the pending halt is moot, the FRAM read cache and
   per-instruction contention state are volatile. Any armed trigger
   stays armed — the next life's boot sequence can be torn too. *)
let power_fail t =
  t.halt_requested <- false;
  t.fram_accesses_this_instr <- 0;
  Hwcache.flush t.cache

(* Uncounted accessors for loading images and inspecting results. *)
let peek_byte t addr = Char.code (Bytes.get t.bytes (addr land 0xFFFF))
let poke_byte t addr v = Bytes.set t.bytes (addr land 0xFFFF) (Char.chr (v land 0xFF))

let peek_word t addr =
  Word.make_word ~high:(peek_byte t (addr + 1)) ~low:(peek_byte t addr)

let poke_word t addr v =
  poke_byte t addr (Word.low_byte v);
  poke_byte t (addr + 1) (Word.high_byte v)

let load_image t ~addr bytes =
  Bytes.blit bytes 0 t.bytes addr (Bytes.length bytes)

let fill t ~lo ~hi v =
  Bytes.fill t.bytes lo (hi - lo + 1) (Char.chr (v land 0xFF))

(* Wait states and contention of one FRAM access. The stall counter
   is bumped in place when no sink is attached; an observed run goes
   through [Trace.add_stall] for its [cycles] event. *)
let[@inline] charge_fram_timing t ~is_read_hit =
  let n = t.fram_accesses_this_instr + 1 in
  t.fram_accesses_this_instr <- n;
  let stall =
    (if is_read_hit then 0 else t.wait_states)
    + if n > 1 then contention_penalty else 0
  in
  let s = t.stats in
  match s.Trace.sink with
  | None -> s.Trace.stall_cycles <- s.Trace.stall_cycles + stall
  | Some _ -> Trace.add_stall s stall

let check_alignment addr width =
  if width = 2 && addr land 1 <> 0 then fault "unaligned word access at 0x%04X" addr

let periph_read t addr =
  ignore t;
  ignore addr;
  0

let periph_write t addr v =
  if addr land 0xFFFE = uart_tx_addr then Buffer.add_char t.uart (Char.chr (v land 0xFF))
  else if addr land 0xFFFE = gpio_out_addr then t.gpio <- v
  else if addr land 0xFFFE = halt_addr then t.halt_requested <- true
  else if addr land 0xFFFE = fault_addr then fault "software fault, code 0x%04X" v

(* Counted read of [width] (1 or 2) bytes. Word access is aligned
   (checked), so the two bytes are contiguous and little-endian — a
   direct 16-bit load, with no wraparound to worry about. *)
let read t ~purpose ~width addr =
  let addr = addr land 0xFFFF in
  power_tick t addr;
  check_alignment addr width;
  let value =
    if width = 2 then Bytes.get_uint16_le t.bytes addr
    else Char.code (Bytes.unsafe_get t.bytes addr)
  in
  (match region_of t.map addr with
  | Sram ->
      (match purpose with
      | Ifetch -> t.stats.Trace.sram_ifetch <- t.stats.Trace.sram_ifetch + 1
      | Data -> t.stats.Trace.sram_data_reads <- t.stats.Trace.sram_data_reads + 1);
      (match t.stats.Trace.sink with
      | None -> ()
      | Some s -> (
          match purpose with
          | Ifetch -> s.Trace.sram_ifetch addr (Trace.home t.stats addr)
          | Data -> s.Trace.sram_read addr))
  | Fram ->
      let hit = Hwcache.read t.cache addr in
      if hit then t.stats.Trace.fram_read_hits <- t.stats.Trace.fram_read_hits + 1;
      (match purpose with
      | Ifetch -> t.stats.Trace.fram_ifetch <- t.stats.Trace.fram_ifetch + 1
      | Data -> t.stats.Trace.fram_data_reads <- t.stats.Trace.fram_data_reads + 1);
      (match t.stats.Trace.sink with
      | None -> ()
      | Some s -> (
          match purpose with
          | Ifetch -> s.Trace.fram_ifetch hit addr (Trace.home t.stats addr)
          | Data -> s.Trace.fram_read hit addr));
      charge_fram_timing t ~is_read_hit:hit
  | Peripheral ->
      t.stats.Trace.periph_accesses <- t.stats.Trace.periph_accesses + 1;
      (match t.stats.Trace.sink with None -> () | Some s -> s.Trace.periph addr);
      ignore (periph_read t addr)
  | Unmapped -> fault "read from unmapped address 0x%04X" addr);
  value

let write t ~width addr value =
  let addr = addr land 0xFFFF in
  power_tick t addr;
  check_alignment addr width;
  (match region_of t.map addr with
  | Sram ->
      t.stats.Trace.sram_writes <- t.stats.Trace.sram_writes + 1;
      (match t.stats.Trace.sink with
      | None -> ()
      | Some s -> s.Trace.sram_write addr);
      if width = 2 then Bytes.set_uint16_le t.bytes addr (value land 0xFFFF)
      else poke_byte t addr value
  | Fram ->
      t.stats.Trace.fram_writes <- t.stats.Trace.fram_writes + 1;
      Hwcache.write t.cache addr;
      (match t.stats.Trace.sink with
      | None -> ()
      | Some s -> s.Trace.fram_write addr);
      charge_fram_timing t ~is_read_hit:false;
      if width = 2 then Bytes.set_uint16_le t.bytes addr (value land 0xFFFF)
      else poke_byte t addr value
  | Peripheral ->
      t.stats.Trace.periph_accesses <- t.stats.Trace.periph_accesses + 1;
      (match t.stats.Trace.sink with None -> () | Some s -> s.Trace.periph addr);
      periph_write t addr value
  | Unmapped -> fault "write to unmapped address 0x%04X" addr)

let read_word t ~purpose addr = read t ~purpose ~width:2 addr
let write_word t addr v = write t ~width:2 addr v
let write_byte t addr v = write t ~width:1 addr v

(* Specialized counted instruction-word fetches for the superblock
   engine's unobserved replay loop. The caller guarantees: the address
   is even, its region was established at record time (so no dispatch
   is needed), and no sink is attached (so no event is due; the
   observed loop fetches through [read_word]). Counters, stalls,
   read-cache state and the power clock advance bit-identically to
   [read ~purpose:Ifetch ~width:2], including the {!Power_loss} raise
   point before the access takes effect. *)
let fetch_word_sram t addr =
  power_tick t addr;
  t.stats.Trace.sram_ifetch <- t.stats.Trace.sram_ifetch + 1;
  Char.code (Bytes.unsafe_get t.bytes addr)
  lor (Char.code (Bytes.unsafe_get t.bytes (addr + 1)) lsl 8)

let fetch_word_fram t addr =
  power_tick t addr;
  let hit = Hwcache.read t.cache addr in
  if hit then t.stats.Trace.fram_read_hits <- t.stats.Trace.fram_read_hits + 1;
  t.stats.Trace.fram_ifetch <- t.stats.Trace.fram_ifetch + 1;
  let v =
    Char.code (Bytes.unsafe_get t.bytes addr)
    lor (Char.code (Bytes.unsafe_get t.bytes (addr + 1)) lsl 8)
  in
  charge_fram_timing t ~is_read_hit:hit;
  v
