(** Runtime for the block-cache baseline: fixed-size SRAM slots, a
    djb2 open-addressing hash table in FRAM mapping NVM block address
    to cached copy, block chaining by rewriting the branch extension
    word inside the cached source block, and a full flush when the
    slots are exhausted (the highest-performance configuration of the
    original design, per the paper §4). *)

type stats = {
  mutable misses : int;  (** runtime entries via CFI stubs *)
  mutable block_loads : int;  (** blocks copied into slots *)
  mutable chains : int;
  mutable flushes : int;
  mutable returns : int;  (** runtime entries via the return trap *)
  mutable hash_probes : int;
  mutable words_copied : int;
}

type t

val stats : t -> stats

val slot_bytes : t -> int
(** Size of one SRAM cache slot (the block-granular cache line). *)

val cache_bytes : t -> int
(** Total slot capacity ([num_slots * slot_bytes]) — the configured
    cache budget the observability layer's miss-ratio curve is
    evaluated against. *)

val cached_block_at : t -> int -> int option
(** Translate a pc inside an SRAM cache slot back to the NVM address
    of the cached block's corresponding word, if the slot currently
    holds a block — the observability layer's dynamic symbolizer.
    Pure host-side inspection: no counted accesses, no perturbation. *)

val reboot : t -> image:Masm.Assembler.t -> unit
(** Power-loss recovery, mirroring [Swapram.Runtime.reboot]: restore
    the FRAM hash table and CFI id word to their post-link values and
    reset the volatile slot cursor; the SRAM slots themselves are
    gone with the power. Restore writes are counted, so an armed
    power trigger can tear the reboot itself; rerunning recovers. *)

val critical_windows :
  t -> image:Masm.Assembler.t -> (string * int * int) list
(** Named [(lo, hi)] FRAM address windows whose accesses belong to the
    caching runtime (handler region, memcpy region, hash table, CFI
    word) — the adversarial fault-injection targets. *)

val install :
  options:Config.options ->
  manifest:Transform.manifest ->
  image:Masm.Assembler.t ->
  Msp430.Platform.system ->
  t
(** Arm the miss and return traps, the Figure-8 instruction-source
    classifier and the trace's ifetch-home and call-unit hooks
    ({!Msp430.Trace.t}) on [system]. *)
