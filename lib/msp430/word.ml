(* 16-bit word arithmetic. Words are stored as OCaml ints in [0, 0xFFFF]. *)

let mask = 0xFFFF
let mask_byte = 0xFF

let of_int v = v land mask
let to_signed v = if v land 0x8000 <> 0 then v - 0x10000 else v

let byte_to_signed v = if v land 0x80 <> 0 then v - 0x100 else v

let low_byte v = v land mask_byte
let high_byte v = (v lsr 8) land mask_byte
let make_word ~high ~low = ((high land mask_byte) lsl 8) lor (low land mask_byte)

let add a b = (a + b) land mask
let sub a b = (a - b) land mask

(* Sign extend a [bits]-wide field. *)
let sign_extend ~bits v =
  let sign = 1 lsl (bits - 1) in
  if v land sign <> 0 then v - (1 lsl bits) else v

let bit v i = (v lsr i) land 1
