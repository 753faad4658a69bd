(** Model of the FRAM controller's hardware read cache: the
    MSP430FR2355's 2-way set-associative cache of four 8-byte lines.
    Reads that hit avoid the FRAM wait states; writes bypass the cache
    but invalidate a matching line so that the self-modifying software
    caches stay coherent. LRU within a set. *)

type t

val create : unit -> t

val read : t -> int -> bool
(** Read access at an address; [true] on hit. A miss fills the line. *)

val write : t -> int -> unit
(** Write access: invalidate any matching line. An aligned word write
    needs one call: [addr] and [addr + 1] share a line. *)

val flush : t -> unit
