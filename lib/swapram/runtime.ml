module Cpu = Msp430.Cpu
module Memory = Msp430.Memory
module Modeled = Msp430.Modeled
module Trace = Msp430.Trace

(* SwapRAM's runtime component: the cache miss handler (paper §3.3,
   Fig. 4). Installed as a trap handler on the simulated CPU; every
   piece of state it touches (funcId, function table, redirection
   entries, active counters, relocation tables, the copied code) moves
   through counted simulated-memory accesses, and its own execution is
   charged through {!Msp430.Modeled} from the reserved FRAM handler
   and memcpy regions, per the phase counts in {!Costs}. *)

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
  mutable aborts : int; (* active-function conflicts -> NVM execution *)
  mutable too_large : int;
  mutable frozen_misses : int;
  mutable evictions : int;
  mutable words_copied : int;
  mutable placement_retries : int; (* allocations skipped past active code *)
  mutable prefetches : int; (* callees cached ahead of their first call *)
  mutable pins : int; (* profile-guided pins copied in (install + reboots) *)
}

type t = {
  cache : Cache.t;
  mem : Memory.t;
  addrs : table_addrs;
  options : Config.options;
  callees : int list array; (* static call graph, for prefetching *)
  pinned_anchors : (int * int) list; (* profile-guided (fid, anchor) pins *)
  stats : stats;
  handler : Modeled.region;
  memcpy : Modeled.region;
  mutable consecutive_aborts : int;
  mutable freeze_left : int;
}

let stats t = t.stats

(* Which cacheable function (fid) owns the SRAM cache copy containing
   [addr], if any — the observability layer's dynamic symbolizer for
   pc values inside the cache region. Pure host-side inspection: no
   counted accesses, no perturbation. *)
let cached_function_at t addr =
  let owner entries =
    List.find_map
      (fun (e : Cache.entry) ->
        if addr >= e.Cache.addr && addr < e.Cache.addr + e.Cache.size then
          Some e.Cache.fid
        else None)
      entries
  in
  match owner (Cache.entries t.cache) with
  | Some fid -> Some fid
  | None -> owner (Cache.pinned_entries t.cache)

let read_word t addr = Memory.read_word t.mem ~purpose:Memory.Data addr
let write_word t addr v = Memory.write_word t.mem addr v

(* Function-table entry fields for [fid]. *)
let functab_nvm t fid = read_word t (t.addrs.a_functab + (8 * fid))
let functab_size t fid = read_word t (t.addrs.a_functab + (8 * fid) + 2)
let functab_rstart t fid = read_word t (t.addrs.a_functab + (8 * fid) + 4)
let functab_rcount t fid = read_word t (t.addrs.a_functab + (8 * fid) + 6)

(* Point all of [fid]'s relocation entries at [base] (SRAM copy when
   cached, NVM original after eviction). *)
let retarget_relocs t fid ~base =
  let rstart = functab_rstart t fid and rcount = functab_rcount t fid in
  for k = rstart to rstart + rcount - 1 do
    Modeled.charge t.handler Costs.reloc_instrs;
    let ofs = read_word t (t.addrs.a_relofs + (2 * k)) in
    write_word t (t.addrs.a_reloc + (2 * k)) ((base + ofs) land 0xFFFF)
  done

let evict_function t (entry : Cache.entry) =
  Modeled.charge t.handler Costs.evict_instrs;
  Modeled.emit t.mem (Trace.Eviction { fid = entry.Cache.fid });
  t.stats.evictions <- t.stats.evictions + 1;
  write_word t (t.addrs.a_redirect + (2 * entry.Cache.fid)) Config.miss_handler_trap;
  let nvm = functab_nvm t entry.Cache.fid in
  retarget_relocs t entry.Cache.fid ~base:nvm

let copy_function t ~nvm ~sram ~size =
  Modeled.copy t.memcpy ~src:nvm ~dst:sram ~words:((size + 1) / 2)
    ~on_word:(fun () -> t.stats.words_copied <- t.stats.words_copied + 1)

(* Call-graph prefetch (extension; §3's observation 2): after caching
   [fid], optionally pull its statically-known callees into *free*
   cache space — prefetches never evict, so mispredictions cost only
   the copy. *)
let rec prefetch_callees t fid budget =
  if budget > 0 then
    let candidates =
      if fid < Array.length t.callees then t.callees.(fid) else []
    in
    let rec go budget = function
      | [] -> ()
      | callee :: rest when budget > 0 ->
          let cached =
            read_word t (t.addrs.a_redirect + (2 * callee))
            <> Config.miss_handler_trap
          in
          if cached then go budget rest
          else begin
            let size = functab_size t callee in
            Modeled.charge t.handler Costs.scan_entry_instrs;
            match Cache.plan t.cache ~size with
            | Cache.Place { addr; evict = [] } ->
                let nvm = functab_nvm t callee in
                Cache.commit t.cache ~fid:callee ~addr ~size ~evicted:[];
                copy_function t ~nvm ~sram:addr ~size;
                retarget_relocs t callee ~base:addr;
                write_word t (t.addrs.a_redirect + (2 * callee)) addr;
                t.stats.prefetches <- t.stats.prefetches + 1;
                Modeled.emit t.mem (Trace.Prefetch { fid = callee });
                prefetch_callees t callee (budget - 1);
                go (budget - 1) rest
            | Cache.Place _ | Cache.Too_large -> go budget rest
          end
      | _ -> ()
    in
    go budget candidates

(* Install-time pinning (profile-guided builds): copy each pinned
   function to its anchor and point its relocation entries (and, for
   uniformity, its redirection entry) at the permanent SRAM copy.
   Call sites reach pinned functions by direct CALL #anchor, so there
   is no per-call runtime involvement at all. Idempotent: reboot
   reruns it after a power loss wipes SRAM, and a rerun after a
   teared reboot recovers — execution never resumes before a reboot
   completes, so the direct calls are crash-safe. *)
let pin_all t =
  List.iter
    (fun (fid, anchor) ->
      Modeled.charge t.handler Costs.handler_entry_instrs;
      let nvm = functab_nvm t fid in
      let size = functab_size t fid in
      let addr = Cache.pin t.cache ~fid ~size in
      if addr <> anchor then
        failwith
          (Printf.sprintf
             "SwapRAM pin: fid %d anchored at 0x%04X but pinned at 0x%04X" fid
             anchor addr);
      copy_function t ~nvm ~sram:addr ~size;
      retarget_relocs t fid ~base:addr;
      write_word t (t.addrs.a_redirect + (2 * fid)) addr;
      t.stats.pins <- t.stats.pins + 1)
    t.pinned_anchors

(* Abort the caching operation and run the callee from NVRAM
   (§3.3.3). The redirection entry keeps pointing at the handler, so
   the next call misses again — the paper's pathological case. *)
let abort_to_nvm t ~fid ~nvm =
  Modeled.charge t.handler Costs.abort_instrs;
  t.consecutive_aborts <- t.consecutive_aborts + 1;
  (match t.options.Config.freeze with
  | Some (threshold, window)
    when t.freeze_left = 0 && t.consecutive_aborts >= threshold ->
      t.freeze_left <- window;
      Modeled.emit t.mem (Trace.Freeze { on = true })
  | _ -> ());
  Modeled.emit t.mem
    (Trace.Miss_exit { runtime = "swapram"; disposition = "nvm"; fid });
  Cpu.Goto nvm

let on_miss t cpu =
  ignore cpu;
  t.stats.misses <- t.stats.misses + 1;
  Modeled.emit t.mem (Trace.Miss_enter { runtime = "swapram" });
  Modeled.charge t.handler Costs.handler_entry_instrs;
  let fid = read_word t t.addrs.a_funcid in
  let nvm = functab_nvm t fid in
  let size = functab_size t fid in
  if t.freeze_left > 0 then begin
    (* freeze mode: execute from NVM without touching the cache *)
    t.freeze_left <- t.freeze_left - 1;
    t.stats.frozen_misses <- t.stats.frozen_misses + 1;
    if t.freeze_left = 0 then Modeled.emit t.mem (Trace.Freeze { on = false });
    Modeled.charge t.handler Costs.abort_instrs;
    Modeled.emit t.mem
      (Trace.Miss_exit { runtime = "swapram"; disposition = "frozen"; fid });
    Cpu.Goto nvm
  end
  else begin
    Modeled.charge t.handler
      (Costs.scan_entry_instrs * max 1 (List.length (Cache.entries t.cache)));
    (* Placement loop: a planned spot whose eviction set contains an
       active function is skipped (allocation moves past the blocker
       and retries) rather than aborted outright — otherwise the
       entry function, cached first at the region base and active for
       the whole run, would block every wrapped allocation. Abort to
       NVM execution only when no spot works (§3.3.3). *)
    let saved_alloc_point = Cache.alloc_point t.cache in
    let abort_restoring () = Cache.set_alloc_point t.cache saved_alloc_point in
    let rec try_place attempts =
      match Cache.plan t.cache ~size with
      | Cache.Too_large ->
          (* every abort path must undo the retries' allocation-point
             moves, or the next miss plans from a skewed cursor *)
          abort_restoring ();
          t.stats.too_large <- t.stats.too_large + 1;
          Modeled.charge t.handler Costs.abort_instrs;
          Modeled.emit t.mem
            (Trace.Miss_exit { runtime = "swapram"; disposition = "too-large"; fid });
          Cpu.Goto nvm
      | Cache.Place { addr; evict } -> (
          (* call-stack integrity: never evict an active function *)
          Modeled.charge t.handler
            (Costs.active_check_instrs * List.length evict);
          let actives =
            List.filter
              (fun (e : Cache.entry) ->
                read_word t (t.addrs.a_active + (2 * e.Cache.fid)) <> 0)
              evict
          in
          match actives with
          | [] ->
              t.consecutive_aborts <- 0;
              List.iter (evict_function t) evict;
              Cache.commit t.cache ~fid ~addr ~size ~evicted:evict;
              copy_function t ~nvm ~sram:addr ~size;
              retarget_relocs t fid ~base:addr;
              write_word t (t.addrs.a_redirect + (2 * fid)) addr;
              prefetch_callees t fid t.options.Config.prefetch;
              Modeled.charge t.handler Costs.handler_exit_instrs;
              if
                t.options.Config.debug_checks
                && not (Cache.check_invariants t.cache)
              then failwith "SwapRAM cache invariant violated";
              Modeled.emit t.mem
                (Trace.Miss_exit { runtime = "swapram"; disposition = "cached"; fid });
              Cpu.Goto addr
          | _ :: _ when attempts > 0 && t.options.Config.policy = Cache.Circular_queue
            ->
              t.stats.placement_retries <- t.stats.placement_retries + 1;
              Modeled.charge t.handler Costs.scan_entry_instrs;
              let blocker_end =
                List.fold_left
                  (fun acc (e : Cache.entry) -> max acc (e.Cache.addr + e.Cache.size))
                  0 actives
              in
              Cache.set_alloc_point t.cache blocker_end;
              try_place (attempts - 1)
          | _ :: _ ->
              abort_restoring ();
              t.stats.aborts <- t.stats.aborts + 1;
              abort_to_nvm t ~fid ~nvm)
    in
    try_place 8
  end

(* Power-loss recovery for intermittent systems (the deployments of
   paper §1/§2.2): SRAM contents — including every cached function —
   are lost, but the FRAM-resident metadata survives and still points
   at the vanished copies. A boot-time routine must reset the cache
   structure and restore the metadata words (redirection entries back
   to the miss handler, relocation slots back to their NVM targets,
   active counters and funcId to zero) from their initial post-link
   values in the image. *)
let reboot t ~image =
  Cache.reset t.cache;
  Modeled.reset t.handler;
  Modeled.reset t.memcpy;
  t.consecutive_aborts <- 0;
  t.freeze_left <- 0;
  (* Counted and idempotent: an armed power trigger can tear the
     reboot itself mid-restore, and rerunning it recovers. *)
  Masm.Assembler.restore_items image t.mem
    [ Config.sym_funcid; Config.sym_redirect; Config.sym_active; Config.sym_reloc ];
  (* pinned copies were in the lost SRAM; re-pin them (same anchors) *)
  pin_all t

(* Runtime-critical FRAM windows, for adversarial fault injection: a
   power failure landing on an access inside one of these regions is
   inside the miss handler, mid-memcpy, or between the two halves of
   a metadata update. *)
let critical_windows t ~image =
  let tab sym = (Masm.Assembler.lookup image sym, Masm.Assembler.item_size image sym) in
  let named name (lo, size) = (name, lo, lo + size) in
  [
    named "handler" (t.handler.Modeled.base, t.handler.Modeled.size);
    named "memcpy" (t.memcpy.Modeled.base, t.memcpy.Modeled.size);
    named "redirect" (tab Config.sym_redirect);
    named "reloc" (tab Config.sym_reloc);
    named "active" (tab Config.sym_active);
  ]

let table_addrs_of_image image =
  let look = Masm.Assembler.lookup image in
  {
    a_funcid = look Config.sym_funcid;
    a_redirect = look Config.sym_redirect;
    a_active = look Config.sym_active;
    a_functab = look Config.sym_functab;
    a_reloc = look Config.sym_reloc;
    a_relofs = look Config.sym_relofs;
  }

let install ~options ~manifest ~image (system : Msp430.Platform.system) =
  let addrs = table_addrs_of_image image in
  let mem = system.Msp430.Platform.memory in
  let region sym size =
    Modeled.region mem ~base:(Masm.Assembler.lookup image sym) ~size
  in
  let callees = manifest.Instrument.callees in
  let cache =
    Cache.create ~base:options.Config.cache_base
      ~capacity:options.Config.cache_size ~policy:options.Config.policy
  in
  let t =
    {
      cache;
      mem;
      addrs;
      options;
      callees;
      pinned_anchors = manifest.Instrument.pinned_anchors;
      stats =
        {
          misses = 0;
          aborts = 0;
          too_large = 0;
          frozen_misses = 0;
          evictions = 0;
          words_copied = 0;
          placement_retries = 0;
          prefetches = 0;
          pins = 0;
        };
      handler =
        region Config.sym_handler manifest.Instrument.handler_bytes Trace.Handler;
      memcpy =
        region Config.sym_memcpy manifest.Instrument.memcpy_bytes Trace.Memcpy;
      consecutive_aborts = 0;
      freeze_left = 0;
    }
  in
  Cpu.register_trap system.Msp430.Platform.cpu Config.miss_handler_trap
    (fun cpu -> on_miss t cpu);
  (* Fig. 8 classification: handler and memcpy regions are runtime
     code; everything else classifies by memory region. *)
  Cpu.set_classifier system.Msp430.Platform.cpu
    (Modeled.classifier ~handler:t.handler ~memcpy:t.memcpy);
  (* A call's unit is the function whose cache copy it enters. *)
  (Memory.stats mem).Trace.call_unit <-
    Some (fun a -> Option.value ~default:(-1) (cached_function_at t a));
  (* profile-guided pins copy in once, before execution starts; the
     image is already loaded (Pipeline.install loads before
     installing the runtime) *)
  pin_all t;
  t
