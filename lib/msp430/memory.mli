(** Simulated memory system: 64 KiB address space with an SRAM region,
    an FRAM region behind the hardware read cache and wait-state
    model, and a few peripherals.

    Every CPU-issued access is counted into a {!Trace.t}; wait states
    accrue as stall cycles. The timing model (DESIGN.md): FRAM reads
    that miss the read cache cost [wait_states] stall cycles, FRAM
    writes always pay them, and the second and subsequent FRAM
    accesses issued by one instruction cost one extra cycle each
    (the access-contention bottleneck of paper §2.2 / Fig. 1). *)

type region = Sram | Fram | Peripheral | Unmapped

exception Fault of string
(** Unmapped or misaligned access, or a software-triggered fault. *)

val fault : ('a, Format.formatter, unit, 'b) format4 -> 'a

exception Power_loss
(** The supply died: raised by a counted access when an armed
    {!power_trigger} fires, before that access takes effect. Used by
    the fault-injection subsystem ({!Faultinject}); {!Cpu.run} turns
    it into a structured outcome. *)

(** Where the next power failure strikes. Because the runtimes' own
    modeled instructions also flow through counted accesses, a
    trigger can land inside the miss handler, mid-memcpy, or between
    the two halves of a metadata update. *)
type power_trigger =
  | After_accesses of int
      (** die on the n-th counted access from arming time *)
  | On_region_access of { lo : int; hi : int; skip : int }
      (** die on the skip-th counted access with [lo <= addr < hi] *)

type map = { sram_lo : int; sram_hi : int; fram_lo : int; fram_hi : int }

(** Peripheral registers. *)

val uart_tx_addr : int
(** Byte writes accumulate as console output. *)

val gpio_out_addr : int

val halt_addr : int
(** Any write requests a halt. *)

val fault_addr : int
(** Any write raises {!Fault}. *)

val region_of : map -> int -> region

type purpose = Ifetch | Data

type t

val contention_penalty : int
(** Extra stall cycles for each FRAM access after the first one issued
    by the same instruction. *)

val create : ?wait_states:int -> map:map -> stats:Trace.t -> unit -> t

val stats : t -> Trace.t
val map : t -> map
val halt_requested : t -> bool
val uart_output : t -> string

val begin_instruction : t -> unit
(** Reset the per-instruction FRAM access count (contention model);
    the CPU calls this before each instruction. *)

(** Power-failure injection. *)

val arm_power_trigger : t -> power_trigger option -> unit
(** Arm the next power failure ([None] disarms). At most one trigger
    is armed at a time; it disarms itself when it fires. *)

val power_armed : t -> bool

val access_ticks : t -> int
(** Total counted accesses so far — the clock {!After_accesses}
    triggers are scheduled against. *)

val power_fail : t -> unit
(** Apply the survivable consequences of an outage beyond the SRAM
    loss the caller inflicts: cancel any pending halt, flush the
    volatile FRAM read cache, reset per-instruction state. An armed
    trigger stays armed so the next boot sequence can be torn too. *)

(** Uncounted accessors for loading images and inspecting results. *)

val peek_byte : t -> int -> int
val poke_byte : t -> int -> int -> unit
val peek_word : t -> int -> int
val poke_word : t -> int -> int -> unit
val load_image : t -> addr:int -> Bytes.t -> unit

val fill : t -> lo:int -> hi:int -> int -> unit
(** [fill t ~lo ~hi v] sets every byte in [\[lo, hi\]] to [v]. *)

(** Counted accesses (these drive the statistics and timing model). *)

val read : t -> purpose:purpose -> width:int -> int -> int
val write : t -> width:int -> int -> int -> unit
val read_word : t -> purpose:purpose -> int -> int
val write_word : t -> int -> int -> unit
val write_byte : t -> int -> int -> unit

val fetch_word_sram : t -> int -> int
val fetch_word_fram : t -> int -> int
(** Specialized counted instruction-word fetches for the superblock
    engine's unobserved replay loop. Caller guarantees: even address,
    region established at record time, no sink attached (they emit no
    event; the observed loop fetches through [read_word ~purpose:Ifetch]
    instead). Counters, stalls, read-cache state and the power clock
    advance bit-identically to [read ~purpose:Ifetch ~width:2]. *)
