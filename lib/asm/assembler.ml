module Isa = Msp430.Isa
module Word = Msp430.Word
module Encoding = Msp430.Encoding
module Memory = Msp430.Memory

(* Two-pass assembler with iterative branch relaxation.

   Text items are placed sequentially from [code_base], data items from
   [data_base] or, when it is [None], packed after the code. Jump
   statements are first assumed to fit the MSP430's 10-bit PC-relative
   offset; any jump whose target falls outside -511..+512 words is
   rewritten as an absolute branch (with the inverted-condition skip of
   the paper's Fig. 6 when conditional) and layout is recomputed until
   no jump is out of range — the same relaxation the msp430-gcc linker
   performs. The post-relaxation
   program is part of the output so instrumentation passes can find
   and rewrite the absolute branches (paper §3.3.1). *)

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type layout = { code_base : int; data_base : int option }

let default_layout = { code_base = 0x4400; data_base = Some 0xA000 }

(* --- Sizing ------------------------------------------------------- *)

let src_ext_words = function
  | Ast.Sidx _ | Ast.Sabs _ | Ast.Ssym _ -> 1
  | Ast.Simm (Ast.Num v) -> ( match Isa.cg_encoding v with Some _ -> 0 | None -> 1)
  | Ast.Simm _ -> 1
  | Ast.Sreg _ | Ast.Sind _ | Ast.Sinc _ -> 0

let dst_ext_words = function
  | Ast.Dreg _ -> 0
  | Ast.Didx _ | Ast.Dabs _ | Ast.Dsym _ -> 1

let instr_size = function
  | Ast.I1 (_, _, s, d) -> 2 + (2 * src_ext_words s) + (2 * dst_ext_words d)
  | Ast.I2 (Isa.CALL, _, Ast.Simm _) -> 4
  | Ast.I2 (_, _, s) -> 2 + (2 * src_ext_words s)
  | Ast.J _ -> 2
  | Ast.Br _ | Ast.Br_ind _ | Ast.Call _ | Ast.Call_ind _ -> 4
  | Ast.Ret -> 2

let stmt_size addr = function
  | Ast.Label _ | Ast.Comment _ -> 0
  | Ast.Instr i -> instr_size i
  | Ast.Word _ -> 2
  | Ast.Byte _ -> 1
  | Ast.Ascii s -> String.length s
  | Ast.Space n -> n
  | Ast.Align n -> (n - (addr mod n)) mod n

(* --- Layout ------------------------------------------------------- *)

type placed = { paddr : int; psize : int; pstmt : Ast.stmt }

type placed_item = {
  source : Ast.item;
  iaddr : int;
  isize : int;
  placed : placed list;
}

let place_item addr (it : Ast.item) =
  let addr = addr + (addr land 1) in
  let rec loop cur acc = function
    | [] -> (cur, List.rev acc)
    | stmt :: rest ->
        (match stmt with
        | Ast.Instr _ | Ast.Word _ ->
            if cur land 1 <> 0 then
              error "item %s: misaligned statement at 0x%04X (missing Align?)"
                it.Ast.name cur
        | _ -> ());
        let size = stmt_size cur stmt in
        loop (cur + size) ({ paddr = cur; psize = size; pstmt = stmt } :: acc) rest
  in
  let end_addr, placed = loop addr [] it.Ast.stmts in
  ({ source = it; iaddr = addr; isize = end_addr - addr; placed }, end_addr)

let place_items base items =
  let rec loop addr acc = function
    | [] -> List.rev acc
    | it :: rest ->
        let pit, addr' = place_item addr it in
        loop addr' (pit :: acc) rest
  in
  loop base [] items

let section_end base placed_items =
  List.fold_left (fun acc p -> max acc (p.iaddr + p.isize)) base placed_items

(* Code size does not depend on where the data goes (symbolic operands
   always take an extension word), so a packed data section can start
   right after the code: at the first even address at least two bytes
   past its end. *)
let place_program ~layout program =
  let text = place_items layout.code_base (Ast.text_items program) in
  let data_base =
    match layout.data_base with
    | Some base -> base
    | None -> (section_end layout.code_base text + 3) land lnot 1
  in
  (text, data_base, place_items data_base (Ast.data_items program))

(* Data items are never relaxed and only [Align 2] pads them, so they
   pack alike from any even base. *)
let data_section_size program =
  section_end 0 (place_items 0 (Ast.data_items program))

let build_symbols placed_items =
  let symbols = Hashtbl.create 97 in
  let define name addr =
    if Hashtbl.mem symbols name then error "duplicate symbol %s" name;
    Hashtbl.replace symbols name addr
  in
  let define_item pit =
    define pit.source.Ast.name pit.iaddr;
    List.iter
      (fun p ->
        match p.pstmt with Ast.Label l -> define l p.paddr | _ -> ())
      pit.placed
  in
  List.iter define_item placed_items;
  symbols

let eval_expr symbols expr =
  let sym l =
    match Hashtbl.find_opt symbols l with
    | Some a -> a
    | None -> error "undefined symbol %s" l
  in
  match expr with
  | Ast.Num n -> Word.of_int n
  | Ast.Lab l -> sym l
  | Ast.Lab_off (l, k) -> Word.of_int (sym l + k)
  | Ast.Diff (a, b) -> Word.of_int (sym a - sym b)

(* --- Relaxation ---------------------------------------------------- *)

let inverse_cond = function
  | Isa.JNE -> Some Isa.JEQ
  | Isa.JEQ -> Some Isa.JNE
  | Isa.JNC -> Some Isa.JC
  | Isa.JC -> Some Isa.JNC
  | Isa.JGE -> Some Isa.JL
  | Isa.JL -> Some Isa.JGE
  | Isa.JN | Isa.JMP -> None

let jump_in_range ~addr ~target =
  let off = (target - (addr + 2)) asr 1 in
  off >= -512 && off <= 511

let fresh_far_label =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Printf.sprintf "$far_%d" !counter

(* Expand one out-of-range jump into its absolute form. *)
let expand_jump cond target =
  match cond with
  | Isa.JMP -> [ Ast.Instr (Ast.Br (Ast.Lab target)) ]
  | _ -> (
      match inverse_cond cond with
      | Some inv ->
          let skip = fresh_far_label () in
          [
            Ast.Instr (Ast.J (inv, skip));
            Ast.Instr (Ast.Br (Ast.Lab target));
            Ast.Label skip;
          ]
      | None ->
          (* JN has no complement: take a short detour through a
             branch island. *)
          let take = fresh_far_label () and skip = fresh_far_label () in
          [
            Ast.Instr (Ast.J (cond, take));
            Ast.Instr (Ast.J (Isa.JMP, skip));
            Ast.Label take;
            Ast.Instr (Ast.Br (Ast.Lab target));
            Ast.Label skip;
          ])

(* One relaxation round: expand every out-of-range jump. Returns the
   rewritten program and whether anything changed. *)
let relax_round ~layout (program : Ast.program) =
  let placed_text, _, placed_data = place_program ~layout program in
  let symbols = build_symbols (placed_text @ placed_data) in
  let changed = ref false in
  let far = Hashtbl.create 16 in
  let mark pit =
    List.iter
      (fun p ->
        match p.pstmt with
        | Ast.Instr (Ast.J (_, l)) ->
            let target = eval_expr symbols (Ast.Lab l) in
            if not (jump_in_range ~addr:p.paddr ~target) then begin
              Hashtbl.replace far (p.paddr, p.pstmt) ();
              changed := true
            end
        | _ -> ())
      pit.placed
  in
  List.iter mark placed_text;
  if not !changed then (program, false)
  else
    let rewrite_item pit =
      let stmts =
        List.concat_map
          (fun p ->
            match p.pstmt with
            | Ast.Instr (Ast.J (c, l)) when Hashtbl.mem far (p.paddr, p.pstmt)
              ->
                expand_jump c l
            | s -> [ s ])
          pit.placed
      in
      { pit.source with Ast.stmts }
    in
    let text = List.map rewrite_item placed_text in
    let data = List.map (fun p -> p.source) placed_data in
    (text @ data, true)

let rec relax ~layout program =
  let program', changed = relax_round ~layout program in
  if changed then relax ~layout program' else program'

(* --- Lowering to concrete instructions ----------------------------- *)

let lower_imm symbols e =
  match e with
  | Ast.Num v -> Isa.Simm (Word.of_int v)
  | _ ->
      let v = eval_expr symbols e in
      (* Symbolic immediates keep their extension word even when the
         constant generator could encode the value, as real assemblers
         do for relocatable operands — layout sizes stay stable. *)
      if Isa.cg_encoding v <> None then Isa.SimmX v else Isa.Simm v

let lower_src symbols = function
  | Ast.Sreg r -> Isa.Sreg r
  | Ast.Sidx (e, r) -> Isa.Sidx (eval_expr symbols e, r)
  | Ast.Sind r -> Isa.Sind r
  | Ast.Sinc r -> Isa.Sinc r
  | Ast.Simm e -> lower_imm symbols e
  | Ast.Sabs e -> Isa.Sabs (eval_expr symbols e)
  | Ast.Ssym e -> Isa.Ssym (eval_expr symbols e)

let lower_dst symbols = function
  | Ast.Dreg r -> Isa.Dreg r
  | Ast.Didx (e, r) -> Isa.Didx (eval_expr symbols e, r)
  | Ast.Dabs e -> Isa.Dabs (eval_expr symbols e)
  | Ast.Dsym e -> Isa.Dsym (eval_expr symbols e)

let lower_instr symbols ~addr = function
  | Ast.I1 (op, sz, s, d) ->
      Isa.I1 (op, sz, lower_src symbols s, lower_dst symbols d)
  | Ast.I2 (op, sz, s) -> Isa.I2 (op, sz, lower_src symbols s)
  | Ast.J (c, l) ->
      let target = eval_expr symbols (Ast.Lab l) in
      let off = (target - (addr + 2)) asr 1 in
      if off < -512 || off > 511 then
        error "jump to %s out of range after relaxation" l;
      Isa.Jcc (c, off)
  | Ast.Br e -> (
      match lower_imm symbols e with
      | imm -> Isa.I1 (Isa.MOV, Isa.W, imm, Isa.Dreg Isa.pc))
  | Ast.Br_ind e ->
      Isa.I1 (Isa.MOV, Isa.W, Isa.Sabs (eval_expr symbols e), Isa.Dreg Isa.pc)
  | Ast.Call e -> Isa.I2 (Isa.CALL, Isa.W, Isa.Simm (eval_expr symbols e))
  | Ast.Call_ind e ->
      Isa.I2 (Isa.CALL, Isa.W, Isa.Sabs (eval_expr symbols e))
  | Ast.Ret -> Isa.I1 (Isa.MOV, Isa.W, Isa.Sinc Isa.sp, Isa.Dreg Isa.pc)

(* --- Image --------------------------------------------------------- *)

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
  resolved : Ast.program;
  code_base : int;
  code_end : int;
  data_base : int;
  data_end : int;
  instructions : (int * Isa.t) list; (* every encoded instruction *)
}

let lookup image name =
  match Hashtbl.find_opt image.symbols name with
  | Some a -> a
  | None -> error "unknown symbol %s" name

let item_size image name =
  match List.find_opt (fun i -> i.info_name = name) image.items with
  | Some i -> i.info_size
  | None -> error "unknown item %s" name

(* The post-link bytes of a named item — what a power-loss recovery
   routine restores metadata tables from. *)
let item_initial image name =
  let addr = lookup image name in
  let size = item_size image name in
  match
    List.find_opt
      (fun s -> addr >= s.base && addr + size <= s.base + Bytes.length s.contents)
      image.segments
  with
  | Some seg -> (addr, Bytes.sub seg.contents (addr - seg.base) size)
  | None -> error "item %s is not covered by any segment" name

(* Counted byte writes, so the boot routine pays real FRAM write costs
   and an armed power trigger can tear it; rerunning it after a tear
   recovers, because it copies constants out of the image. *)
let restore_items image mem names =
  List.iter
    (fun name ->
      let addr, bytes = item_initial image name in
      Bytes.iteri (fun i c -> Memory.write_byte mem (addr + i) (Char.code c)) bytes)
    names

let emit_segment symbols base placed_items =
  let contents = Bytes.make (section_end base placed_items - base) '\000' in
  let put addr b = Bytes.set contents (addr - base) (Char.chr (b land 0xFF)) in
  let put_word addr w =
    put addr (Word.low_byte w);
    put (addr + 1) (Word.high_byte w)
  in
  let instructions = ref [] in
  let emit_placed p =
    match p.pstmt with
    | Ast.Label _ | Ast.Comment _ -> ()
    | Ast.Align _ -> ()
    | Ast.Word e -> put_word p.paddr (eval_expr symbols e)
    | Ast.Byte b -> put p.paddr b
    | Ast.Ascii s -> String.iteri (fun i c -> put (p.paddr + i) (Char.code c)) s
    | Ast.Space _ -> ()
    | Ast.Instr i ->
        let isa = lower_instr symbols ~addr:p.paddr i in
        let words = Encoding.encode ~addr:p.paddr isa in
        if 2 * List.length words <> p.psize then
          error "size mismatch at 0x%04X for %s (laid out %d, encoded %d)"
            p.paddr
            (Format.asprintf "%a" Ast.pp_instr i)
            p.psize
            (2 * List.length words);
        List.iteri (fun k w -> put_word (p.paddr + (2 * k)) w) words;
        instructions := (p.paddr, isa) :: !instructions
  in
  List.iter (fun pit -> List.iter emit_placed pit.placed) placed_items;
  ({ base; contents }, List.rev !instructions)

let assemble ?(layout = default_layout) (program : Ast.program) =
  let resolved = relax ~layout program in
  let placed_text, data_base, placed_data = place_program ~layout resolved in
  let symbols = build_symbols (placed_text @ placed_data) in
  let code_seg, code_instrs = emit_segment symbols layout.code_base placed_text in
  let data_seg, data_instrs = emit_segment symbols data_base placed_data in
  let info pit =
    {
      info_name = pit.source.Ast.name;
      info_section = pit.source.Ast.section;
      info_addr = pit.iaddr;
      info_size = pit.isize;
    }
  in
  {
    symbols;
    items = List.map info (placed_text @ placed_data);
    segments = [ code_seg; data_seg ];
    resolved;
    code_base = layout.code_base;
    code_end = code_seg.base + Bytes.length code_seg.contents;
    data_base;
    data_end = data_seg.base + Bytes.length data_seg.contents;
    instructions = code_instrs @ data_instrs;
  }

let load image memory =
  List.iter
    (fun seg -> Memory.load_image memory ~addr:seg.base seg.contents)
    image.segments

let code_size image = image.code_end - image.code_base
let data_size image = image.data_end - image.data_base
