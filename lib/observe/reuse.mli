(** Exact byte-weighted LRU reuse-distance tracker (Mattson's stack
    algorithm) — the repo's single stack-distance implementation.

    Feed the stream of cache-unit accesses, one run at a time; read
    back the exact misses and fill bytes a fully-associative byte-LRU
    cache of any hypothetical capacity would incur — the miss-ratio
    curve. Units are functions for SwapRAM (its real cache granule)
    and fixed-size lines for the baseline and block-cache runtimes.

    - {b Runs.} [access ~len] is [len] consecutive references to one
      unit: the first is charged its stack distance, the other
      [len - 1] the unit's own size (they re-reference the MRU unit),
      exactly as [len] single-access calls would be.
    - {b Fill bytes.} Each distance also accumulates the bytes of the
      references charged with it, so {!fill_bytes} reports what a cache
      of a given capacity copies in, alongside {!predicted_misses}.
    - {b Stack fold.} {!fold_stack} walks the final recency stack
      MRU to LRU; the byte-fitting prefix of that walk is what an LRU
      cache of each capacity holds at the end of the stream.
    - {b No bypass.} Every unit enters the stack, however large. A
      real cache that refuses units larger than its capacity (SwapRAM's
      too-large path, [Replay.Engine.simulate]) agrees with this
      tracker only at budgets at least the largest unit size; callers
      that need the bypass filter such units out of the stream first,
      as the replay engine's all-budget kernel does per bypass class.

    Unit ids must be non-negative (they index dense arrays) and a
    unit's [bytes] non-negative. *)

type t

val create : unit -> t

val access : t -> unit_id:int -> bytes:int -> len:int -> unit
(** [len >= 1] consecutive references to cache unit [unit_id] of size
    [bytes]. The stack distance charged to the first is the byte sum
    of distinct units touched since the last reference to this unit,
    including its own size (= the smallest capacity at which this
    reference hits); the remaining [len - 1] are charged the unit's
    own size. First touches count as cold misses at every budget. MRU
    re-references short-circuit, so the tree cost is paid only on unit
    transitions. *)

val note_measured_miss : t -> unit
(** Record one miss actually observed from the running runtime, for
    the predicted-vs-measured cross-check. *)

val accesses : t -> int
val units : t -> int
(** Distinct units seen. *)

val footprint : t -> int
(** Total bytes across distinct units seen. *)

val cold_misses : t -> int
val measured_misses : t -> int

val predicted_misses : t -> budget:int -> int
(** Exact misses of a byte-LRU cache with capacity [budget] (and no
    bypass) over the observed access stream. *)

val fill_bytes : t -> budget:int -> int
(** Bytes that cache copies in: the summed unit sizes of the
    references {!predicted_misses} counts. *)

val at_budgets : t -> int array -> (int * int) array
(** [(predicted_misses, fill_bytes)] at each of the given budgets,
    which must be ascending, from one sweep of the histogram rather
    than one per budget. *)

val fold_stack : t -> init:'a -> ('a -> int -> 'a) -> 'a
(** Fold over the current recency stack, MRU first, one step per
    distinct unit with its stacked size in bytes. *)

val predicted_miss_rate : t -> budget:int -> float
val measured_miss_rate : t -> float

val curve : t -> budgets:int list -> (int * float) list
(** [(budget, predicted miss rate)] per requested budget. *)
