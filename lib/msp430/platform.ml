(* MSP430FR2355-like platform configuration: memory map, clock
   operating points, and system construction. *)

let sram_base = 0x2000
let sram_size = 4096
let fram_base = 0x4000
let fram_size = 32768

let fr2355_map =
  {
    Memory.sram_lo = sram_base;
    sram_hi = sram_base + sram_size - 1;
    fram_lo = fram_base;
    fram_hi = fram_base + fram_size - 1;
  }

type frequency = Mhz8 | Mhz24

let frequency_name = function Mhz8 -> "8 MHz" | Mhz24 -> "24 MHz"
let mhz = function Mhz8 -> 8 | Mhz24 -> 24
let frequency_of_mhz = function 8 -> Some Mhz8 | 24 -> Some Mhz24 | _ -> None

(* FRAM runs at 8 MHz max; above that the controller inserts wait
   states on array accesses (SLASEC4: 3 cycles at 24 MHz). *)
let wait_states = function Mhz8 -> 0 | Mhz24 -> 3

let energy_params = function
  | Mhz8 -> Energy.point_8mhz
  | Mhz24 -> Energy.point_24mhz

type system = { cpu : Cpu.t; memory : Memory.t; frequency : frequency }

let create ?(map = fr2355_map) frequency =
  let stats = Trace.create () in
  let memory =
    Memory.create ~wait_states:(wait_states frequency) ~map ~stats ()
  in
  let cpu = Cpu.create memory in
  { cpu; memory; frequency }

let report system =
  Energy.evaluate (energy_params system.frequency) (Cpu.stats system.cpu)

(* A power failure, as the batteryless deployments of paper §1/§2.2
   experience it: SRAM — stack, data, every cached function — decays
   to garbage, the CPU loses its registers, FRAM survives. The caller
   then replays the boot path (runtime reboot + entry vector). *)
let power_fail ?(pattern = 0xFF) system =
  let map = Memory.map system.memory in
  Memory.fill system.memory ~lo:map.Memory.sram_lo ~hi:map.Memory.sram_hi
    pattern;
  Memory.power_fail system.memory;
  Cpu.power_reset system.cpu
