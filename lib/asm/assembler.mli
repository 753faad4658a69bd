(** Two-pass assembler with iterative branch relaxation.

    Text items are placed sequentially from [code_base], data items
    from [data_base] or packed after the code. Jumps whose targets
    fall outside the MSP430's 10-bit PC-relative range are rewritten
    as absolute branches (with the inverted-condition skip of the
    paper's Fig. 6 when conditional) until layout converges — the
    msp430-gcc linker behaviour the paper relies on (§4). The post-relaxation program is
    part of the output so instrumentation passes can find and rewrite
    the absolute branches (§3.3.1). *)

module Isa = Msp430.Isa

exception Error of string

type layout = {
  code_base : int;
  data_base : int option;
      (** [None] packs the data section after the code, at the first
          even address at least two bytes past the code's end *)
}

val default_layout : layout

val instr_size : Ast.instr -> int
(** Exact encoded size in bytes, assuming jumps stay short. *)

val inverse_cond : Isa.cond -> Isa.cond option
(** Complement of a condition code; [None] for JN and JMP. *)

val jump_in_range : addr:int -> target:int -> bool

val relax : layout:layout -> Ast.program -> Ast.program
(** Expand out-of-range jumps until none remain. *)

type segment = { base : int; contents : Bytes.t }

type item_info = {
  info_name : string;
  info_section : Ast.section;
  info_addr : int;
  info_size : int;
}

type t = {
  symbols : (string, int) Hashtbl.t;
  items : item_info list;
  segments : segment list;
  resolved : Ast.program;  (** the program after relaxation *)
  code_base : int;
  code_end : int;
  data_base : int;  (** where the data section was placed *)
  data_end : int;
  instructions : (int * Isa.t) list;  (** every encoded instruction *)
}

val lookup : t -> string -> int
val item_size : t -> string -> int

(** Address and post-link contents of a named item — what a
    power-loss recovery routine restores metadata tables from. *)
val item_initial : t -> string -> int * Bytes.t

val restore_items : t -> Msp430.Memory.t -> string list -> unit
(** Write the named items' post-link contents back to memory through
    counted writes: an idempotent power-loss restore that an armed
    power trigger can tear. *)

val assemble : ?layout:layout -> Ast.program -> t
val load : t -> Msp430.Memory.t -> unit
val code_size : t -> int
val data_size : t -> int

val data_section_size : Ast.program -> int
(** The [data_size] of the program's image at any layout, without
    assembling it: data items are never relaxed, and they pack alike
    from any even base. *)
