(** Fixed-range bucketed counter: the accumulator behind the
    address-space access heatmaps. The address range [\[lo, hi)] is
    split into equal-width buckets; out-of-range adds are counted as
    [clipped] but not binned. *)

type t

val create : lo:int -> hi:int -> buckets:int -> t
(** Raises [Invalid_argument] on an empty range or zero buckets. *)

val add : t -> int -> unit
(** [add t addr] increments the bucket containing [addr]. *)

val counts : t -> int array
(** Per-bucket counts, a fresh copy. *)

val total : t -> int
(** Number of binned adds. *)

val clipped : t -> int
(** Number of adds that fell outside [\[lo, hi)]. *)

val lo : t -> int
val hi : t -> int
val buckets : t -> int

val bucket_bytes : t -> int
(** Bytes covered by one bucket (rounded up). *)

val reset : t -> unit
