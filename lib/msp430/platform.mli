(** MSP430FR2355-like platform configuration: memory map, clock
    operating points, and system construction. *)

val sram_base : int
val sram_size : int  (* 4 KiB *)
val fram_base : int
val fram_size : int  (* 32 KiB *)
val fr2355_map : Memory.map

(** The two operating points the paper evaluates: 8 MHz (zero FRAM
    wait states) and 24 MHz (maximum CPU clock; 3 wait states per
    FRAM array access). *)
type frequency = Mhz8 | Mhz24

val frequency_name : frequency -> string
val mhz : frequency -> int
val frequency_of_mhz : int -> frequency option
val wait_states : frequency -> int
val energy_params : frequency -> Energy.params

type system = { cpu : Cpu.t; memory : Memory.t; frequency : frequency }

val create : ?map:Memory.map -> frequency -> system

val report : system -> Energy.report
(** Time and energy for the execution so far. *)

val power_fail : ?pattern:int -> system -> unit
(** A power failure as intermittent deployments experience it: SRAM
    decays to [pattern] bytes (default [0xFF]), the CPU registers and
    halt latch clear, the FRAM read cache flushes; FRAM contents
    survive. The caller then replays the boot path — the runtime's
    [reboot] plus reloading SP/PC. *)
