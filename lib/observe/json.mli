(** Minimal dependency-free JSON emitter and parser for the
    observability exporters (Chrome trace JSON, [bench/report.json])
    and the exact gate ([swapram_cli compare]), which reads reports
    back. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering. Strings are escaped byte-wise:
    control characters, DEL and all bytes >= 0x80 become [\uXXXX]
    escapes, so output is valid JSON for arbitrary (even non-UTF-8)
    input bytes. *)

val to_string_pretty : t -> string
(** Two-space-indented rendering with a trailing newline, for
    human-diffable artifacts. NaN / infinities render as [null]. *)

val parse : string -> (t, string) result
(** Parse standard JSON. Numbers without a fraction or exponent parse
    as [Int] (degrading to [Float] only on 63-bit overflow); [\uXXXX]
    escapes below U+0100 decode to the single byte (the inverse of the
    emitter's byte-wise escaping), higher code points to UTF-8. *)

(** {2 Accessors} — shallow helpers for the report reader. *)

val member : string -> t -> t option
(** [member k (Obj kvs)] is the value bound to [k], if any; [None] on
    non-objects. *)

val to_int : t -> int option
(** [Int], or an integral [Float]. *)

val to_float : t -> float option
(** [Float], or any [Int] widened. *)

val to_str : t -> string option
val to_list : t -> t list option
