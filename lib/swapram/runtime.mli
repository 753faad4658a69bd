(** SwapRAM's runtime component: the cache miss handler (paper §3.3,
    Fig. 4), installed as a trap handler on the simulated CPU.

    All state the handler touches — funcId, function table,
    redirection entries, active counters, relocation tables, the
    copied code itself — moves through counted simulated-memory
    accesses, and the handler's own execution is charged through
    {!Msp430.Modeled} from the reserved FRAM handler and memcpy
    regions, per the phase counts in {!Costs}, so Figure 8's source
    breakdown and Table 2's cycle counts stay faithful. *)

type table_addrs = {
  a_funcid : int;
  a_redirect : int;
  a_active : int;
  a_functab : int;
  a_reloc : int;
  a_relofs : int;
}

type stats = {
  mutable misses : int;
  mutable aborts : int;
      (** caching operations abandoned because every viable placement
          would evict an active function — the callee then runs from
          NVRAM (§3.3.3) *)
  mutable too_large : int;  (** functions that can never fit the cache *)
  mutable frozen_misses : int;  (** misses served from NVM in freeze mode *)
  mutable evictions : int;
  mutable words_copied : int;
  mutable placement_retries : int;
      (** allocations moved past an active (un-evictable) function *)
  mutable prefetches : int;
      (** callees cached ahead of their first call (prefetch extension) *)
  mutable pins : int;
      (** profile-guided pinned functions copied in, across the
          install and every reboot *)
}

type t = {
  cache : Cache.t;
  mem : Msp430.Memory.t;
  addrs : table_addrs;
  options : Config.options;
  callees : int list array;
  pinned_anchors : (int * int) list;
      (** profile-guided [(fid, anchor)] pins from the manifest *)
  stats : stats;
  handler : Msp430.Modeled.region;
  memcpy : Msp430.Modeled.region;
  mutable consecutive_aborts : int;
  mutable freeze_left : int;
}

val stats : t -> stats

val cached_function_at : t -> int -> int option
(** Which cacheable function (fid) owns the SRAM cache copy containing
    the given address, if any — the observability layer's dynamic
    symbolizer for pc values inside the cache region. Pure host-side
    inspection: no counted accesses, no perturbation. *)

val reboot : t -> image:Masm.Assembler.t -> unit
(** Power-loss recovery for intermittent deployments (paper §1/§2.2):
    the SRAM cache contents are gone, so reset the cache structure and
    restore the FRAM metadata words (redirection entries, relocation
    slots, active counters, funcId) to their initial post-link values.
    Application data in FRAM is untouched — that persistence is the
    point of NVRAM systems. The caller clears/loses SRAM and resets
    the CPU itself (see {!Msp430.Platform.power_fail}).

    The restore writes are counted FRAM accesses, so an armed power
    trigger ({!Msp430.Memory.arm_power_trigger}) can interrupt the
    reboot itself with {!Msp430.Memory.Power_loss}; the routine is
    idempotent, so simply rerunning it recovers. *)

val critical_windows :
  t -> image:Masm.Assembler.t -> (string * int * int) list
(** Named [(lo, hi)] FRAM address windows whose accesses belong to the
    caching runtime (handler region, memcpy region, redirection /
    relocation / active-counter tables) — the adversarial
    fault-injection targets. *)

val install :
  options:Config.options ->
  manifest:Instrument.manifest ->
  image:Masm.Assembler.t ->
  Msp430.Platform.system ->
  t
(** Arm the miss-handler trap, the Figure-8 instruction-source
    classifier and the trace's call-unit hook
    ({!Msp430.Trace.t.call_unit}) on [system], then copy in any profile-guided pinned
    functions (the manifest's anchors). The image must already be
    built from the instrumented program {e and loaded into the
    system's memory} (pinning reads the NVM code); {!Pipeline.install}
    does both. *)
