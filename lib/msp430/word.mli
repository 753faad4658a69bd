(** 16-bit word arithmetic; words are OCaml ints in [0, 0xFFFF]. *)

val mask : int
val mask_byte : int
val of_int : int -> int
val to_signed : int -> int
val byte_to_signed : int -> int
val low_byte : int -> int
val high_byte : int -> int
val make_word : high:int -> low:int -> int
val add : int -> int -> int
val sub : int -> int -> int
val sign_extend : bits:int -> int -> int
val bit : int -> int -> int
