(* Windowed time-series cache-dynamics sampler.

   A Trace sink (live or replayed) that splits the run into fixed
   cycle-count windows. Each window accumulates the same counter set
   the aggregate Trace totals hold (cycles, instruction count, memory
   accesses by class) plus the runtime events that describe cache
   dynamics (misses, evictions, freezes, flushes, block loads,
   prefetches) and two address-space access histograms (FRAM and
   SRAM) for heatmap rendering.

   Windows close on [cycles] callback boundaries — events are never
   split across windows — so per-window counters partition the run
   exactly: summed over all windows they equal the aggregate Trace
   totals, and (the energy model being linear in the counters) window
   energies sum to the whole-run energy report. The property tests
   assert both.

   Cache occupancy is reconstructed purely from events: a "cached"
   [miss_exit] and a [prefetch] add the function's size, [eviction]
   subtracts it, [block_load] adds one slot, [cache_flush] zeroes.
   The occupancy recorded in a window is the value at its close.

   An optional exact reuse-distance tracker ({!Reuse}) rides the same
   stream. For SwapRAM the cache unit is the *function* — the granule
   SwapRAM actually caches — with hits observed as calls whose unit
   answer lies inside the cache region and misses as [miss_exit] events,
   so the predicted and measured miss rates share one denominator
   (calls to cacheable functions). For the baseline and the block
   cache the unit is a fixed-size line over ifetch addresses
   normalized to their NVM home. *)

type reuse_mode = No_reuse | Functions | Lines of int

type spec = {
  window_cycles : int;
  buckets : int;
  reuse : reuse_mode;
  config_budget : int;
      (* the runtime's configured cache capacity in bytes; 0 when no
         cache is attached (baseline) *)
}

let default_spec =
  { window_cycles = 65536; buckets = 48; reuse = No_reuse; config_budget = 0 }

type window = {
  w_start : int; (* cycle count at window open *)
  mutable w_unstalled : int;
  mutable w_stall : int;
  mutable w_instrs : int;
  mutable w_fram_read_hits : int;
  mutable w_fram_read_misses : int;
  mutable w_fram_writes : int;
  mutable w_sram_accesses : int;
  mutable w_periph : int;
  mutable w_calls : int;
  mutable w_returns : int;
  mutable w_unit_hits : int; (* calls resolving into the cache region *)
  mutable w_miss_entries : int;
  mutable w_exits_cached : int;
  mutable w_exits_nvm : int; (* "nvm" / "frozen" / "too-large" *)
  mutable w_evictions : int;
  mutable w_freezes : int; (* on-transitions *)
  mutable w_flushes : int;
  mutable w_block_loads : int;
  mutable w_prefetches : int;
  mutable w_occupancy : int; (* bytes cached at window close *)
  w_fram_hist : Histogram.t;
  w_sram_hist : Histogram.t;
}

type t = {
  spec : spec;
  params : Msp430.Energy.params;
  fid_size : int -> int; (* code bytes of function [fid] *)
  fram_lo : int;
  fram_hi : int;
  sram_lo : int;
  sram_hi : int;
  mutable total_cycles : int;
  mutable cur : window;
  mutable closed : window list; (* newest first *)
  mutable occupancy : int;
  reuse : Reuse.t option;
  (* [Lines] mode: the pending run of consecutive fetches of one line,
     not yet handed to [reuse] ([run_len] = 0: none). *)
  mutable run_line : int;
  mutable run_len : int;
}

let fresh_window ~spec ~fram_lo ~fram_hi ~sram_lo ~sram_hi start =
  {
    w_start = start;
    w_unstalled = 0;
    w_stall = 0;
    w_instrs = 0;
    w_fram_read_hits = 0;
    w_fram_read_misses = 0;
    w_fram_writes = 0;
    w_sram_accesses = 0;
    w_periph = 0;
    w_calls = 0;
    w_returns = 0;
    w_unit_hits = 0;
    w_miss_entries = 0;
    w_exits_cached = 0;
    w_exits_nvm = 0;
    w_evictions = 0;
    w_freezes = 0;
    w_flushes = 0;
    w_block_loads = 0;
    w_prefetches = 0;
    w_occupancy = 0;
    w_fram_hist = Histogram.create ~lo:fram_lo ~hi:fram_hi ~buckets:spec.buckets;
    w_sram_hist = Histogram.create ~lo:sram_lo ~hi:sram_hi ~buckets:spec.buckets;
  }

let create spec ~params ~fram:(fram_lo, fram_hi) ~sram:(sram_lo, sram_hi)
    ~fid_size =
  if spec.window_cycles <= 0 then
    invalid_arg "Metrics.create: window_cycles must be positive";
  {
    spec;
    params;
    fid_size;
    fram_lo;
    fram_hi;
    sram_lo;
    sram_hi;
    total_cycles = 0;
    cur = fresh_window ~spec ~fram_lo ~fram_hi ~sram_lo ~sram_hi 0;
    closed = [];
    occupancy = 0;
    reuse =
      (match spec.reuse with
      | No_reuse -> None
      | Functions | Lines _ -> Some (Reuse.create ()));
    run_line = 0;
    run_len = 0;
  }

let window_cycles w = w.w_unstalled + w.w_stall

let close_window t =
  t.cur.w_occupancy <- t.occupancy;
  t.closed <- t.cur :: t.closed;
  t.cur <-
    fresh_window ~spec:t.spec ~fram_lo:t.fram_lo ~fram_hi:t.fram_hi
      ~sram_lo:t.sram_lo ~sram_hi:t.sram_hi t.total_cycles

let nonempty w =
  window_cycles w > 0 || w.w_instrs > 0 || w.w_miss_entries > 0

let windows t =
  List.rev (if nonempty t.cur then t.cur :: t.closed else t.closed)

let size_of t fid = max 0 (t.fid_size fid)

let reuse_access t ~unit_id ~bytes =
  match t.reuse with
  | Some r -> Reuse.access r ~unit_id ~bytes ~len:1
  | None -> ()

(* --- The sink ----------------------------------------------------------- *)

(* In [Lines] mode only instruction fetches touch the reuse stack, so
   a run of fetches to one line — however many other events fall
   between them — is one [Reuse.access ~len], which charges exactly what
   the fetches would one by one. The run is handed over when the line
   changes and before the tracker is read. *)
let flush_run t =
  if t.run_len > 0 then begin
    (match (t.spec.reuse, t.reuse) with
    | Lines n, Some r ->
        Reuse.access r ~unit_id:t.run_line ~bytes:n ~len:t.run_len
    | _ -> ());
    t.run_len <- 0
  end

let line_access t home =
  match t.spec.reuse with
  | Lines n ->
      let line = home / n in
      if t.run_len > 0 && line = t.run_line then t.run_len <- t.run_len + 1
      else begin
        flush_run t;
        t.run_line <- line;
        t.run_len <- 1
      end
  | Functions | No_reuse -> ()

let fram_read t hit addr =
  let w = t.cur in
  if hit then w.w_fram_read_hits <- w.w_fram_read_hits + 1
  else w.w_fram_read_misses <- w.w_fram_read_misses + 1;
  Histogram.add w.w_fram_hist addr

let sram_access t addr =
  let w = t.cur in
  w.w_sram_accesses <- w.w_sram_accesses + 1;
  Histogram.add w.w_sram_hist addr

(* The same callbacks serve a live run and a trace replay: the hook
   answers (homes, units) arrive as arguments either way. *)
let sink t =
  {
    Msp430.Trace.instr =
      (fun _source _pc -> t.cur.w_instrs <- t.cur.w_instrs + 1);
    cycles =
      (fun unstalled stall ->
        let w = t.cur in
        w.w_unstalled <- w.w_unstalled + unstalled;
        w.w_stall <- w.w_stall + stall;
        t.total_cycles <- t.total_cycles + unstalled + stall;
        if t.total_cycles - w.w_start >= t.spec.window_cycles then
          close_window t);
    fram_read = fram_read t;
    fram_ifetch =
      (fun hit addr home ->
        fram_read t hit addr;
        line_access t home);
    fram_write =
      (fun addr ->
        let w = t.cur in
        w.w_fram_writes <- w.w_fram_writes + 1;
        Histogram.add w.w_fram_hist addr);
    sram_read = sram_access t;
    sram_ifetch =
      (fun addr home ->
        sram_access t addr;
        line_access t home);
    sram_write = sram_access t;
    periph = (fun _addr -> t.cur.w_periph <- t.cur.w_periph + 1);
    call =
      (fun _target unit_id ->
        let w = t.cur in
        w.w_calls <- w.w_calls + 1;
        if unit_id >= 0 then begin
          w.w_unit_hits <- w.w_unit_hits + 1;
          match t.spec.reuse with
          | Functions -> reuse_access t ~unit_id ~bytes:(size_of t unit_id)
          | Lines _ | No_reuse -> ()
        end);
    return = (fun () -> t.cur.w_returns <- t.cur.w_returns + 1);
    miss_enter =
      (fun _runtime -> t.cur.w_miss_entries <- t.cur.w_miss_entries + 1);
    miss_exit =
      (fun _runtime disposition fid ->
        let w = t.cur in
        (if disposition = "cached" then begin
           w.w_exits_cached <- w.w_exits_cached + 1;
           if fid >= 0 then t.occupancy <- t.occupancy + size_of t fid
         end
         else if disposition <> "return" then w.w_exits_nvm <- w.w_exits_nvm + 1);
        if fid >= 0 && disposition <> "return" then
          match t.spec.reuse with
          | Functions ->
              reuse_access t ~unit_id:fid ~bytes:(size_of t fid);
              Option.iter Reuse.note_measured_miss t.reuse
          | Lines _ | No_reuse -> ());
    eviction =
      (fun fid ->
        t.cur.w_evictions <- t.cur.w_evictions + 1;
        t.occupancy <- max 0 (t.occupancy - size_of t fid));
    freeze = (fun on -> if on then t.cur.w_freezes <- t.cur.w_freezes + 1);
    cache_flush =
      (fun () ->
        t.cur.w_flushes <- t.cur.w_flushes + 1;
        t.occupancy <- 0);
    block_load =
      (fun _nvm ->
        t.cur.w_block_loads <- t.cur.w_block_loads + 1;
        match t.spec.reuse with
        | Lines n ->
            t.occupancy <- t.occupancy + n;
            Option.iter Reuse.note_measured_miss t.reuse
        | Functions | No_reuse -> ());
    prefetch =
      (fun fid ->
        t.cur.w_prefetches <- t.cur.w_prefetches + 1;
        t.occupancy <- t.occupancy + size_of t fid);
    phase = (fun _name -> ());
  }

(* --- Derived quantities ------------------------------------------------ *)

let reuse_tracker t =
  flush_run t;
  t.reuse

let spec t = t.spec
let occupancy t = t.occupancy

type energy_split = {
  e_total : float;
  e_cpu : float; (* cycle-proportional component *)
  e_fram_read : float;
  e_fram_write : float;
  e_sram : float;
}

let energy_nj params ~cycles ~fram_read_misses ~fram_read_hits ~fram_writes
    ~sram_accesses =
  (Msp430.Energy.evaluate_counts params ~cycles ~fram_read_misses
     ~fram_read_hits ~fram_writes ~sram_accesses)
    .Msp430.Energy.energy_nj

let window_energy t w =
  let cycles = window_cycles w in
  let total =
    energy_nj t.params ~cycles ~fram_read_misses:w.w_fram_read_misses
      ~fram_read_hits:w.w_fram_read_hits ~fram_writes:w.w_fram_writes
      ~sram_accesses:w.w_sram_accesses
  in
  (* The model is linear in the counters, so the per-class split is
     obtained by pricing each class alone. *)
  let zero = energy_nj t.params ~cycles:0 ~fram_read_misses:0
      ~fram_read_hits:0 ~fram_writes:0 ~sram_accesses:0
  in
  {
    e_total = total;
    e_cpu =
      energy_nj t.params ~cycles ~fram_read_misses:0 ~fram_read_hits:0
        ~fram_writes:0 ~sram_accesses:0
      -. zero;
    e_fram_read =
      energy_nj t.params ~cycles:0
        ~fram_read_misses:w.w_fram_read_misses
        ~fram_read_hits:w.w_fram_read_hits ~fram_writes:0 ~sram_accesses:0
      -. zero;
    e_fram_write =
      energy_nj t.params ~cycles:0 ~fram_read_misses:0 ~fram_read_hits:0
        ~fram_writes:w.w_fram_writes ~sram_accesses:0
      -. zero;
    e_sram =
      energy_nj t.params ~cycles:0 ~fram_read_misses:0 ~fram_read_hits:0
        ~fram_writes:0 ~sram_accesses:w.w_sram_accesses
      -. zero;
  }

let window_misses w = w.w_exits_cached + w.w_exits_nvm + w.w_block_loads

let window_miss_rate w =
  let misses = window_misses w in
  let refs = w.w_unit_hits + misses in
  if refs = 0 then 0.0 else float_of_int misses /. float_of_int refs

let default_budgets =
  [ 256; 512; 768; 1024; 1536; 2048; 2560; 3072; 3584; 4096; 5120; 6144; 7168; 8192 ]

(* --- Renderers --------------------------------------------------------- *)

let render_series t =
  let ws = windows t in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%10s %9s %7s %8s %8s %6s %6s %6s %5s %5s %6s %10s\n"
       "window@" "cycles" "stall" "fram-rd" "sram" "miss" "evict" "bload"
       "frz" "flush" "occ-B" "energy-nJ");
  List.iter
    (fun w ->
      let e = window_energy t w in
      Buffer.add_string buf
        (Printf.sprintf
           "%10d %9d %7d %8d %8d %6d %6d %6d %5d %5d %6d %10.1f\n" w.w_start
           (window_cycles w) w.w_stall
           (w.w_fram_read_hits + w.w_fram_read_misses)
           w.w_sram_accesses (window_misses w) w.w_evictions w.w_block_loads
           w.w_freezes w.w_flushes w.w_occupancy e.e_total))
    ws;
  Buffer.contents buf

let render_csv t =
  let ws = windows t in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "start,unstalled,stall,instrs,fram_read_hits,fram_read_misses,fram_writes,sram_accesses,calls,returns,unit_hits,miss_entries,exits_cached,exits_nvm,evictions,freezes,flushes,block_loads,prefetches,occupancy,miss_rate,energy_nj,energy_cpu_nj,energy_fram_read_nj,energy_fram_write_nj,energy_sram_nj\n";
  List.iter
    (fun w ->
      let e = window_energy t w in
      Buffer.add_string buf
        (Printf.sprintf
           "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.6f,%.3f,%.3f,%.3f,%.3f,%.3f\n"
           w.w_start w.w_unstalled w.w_stall w.w_instrs w.w_fram_read_hits
           w.w_fram_read_misses w.w_fram_writes w.w_sram_accesses w.w_calls
           w.w_returns w.w_unit_hits w.w_miss_entries w.w_exits_cached
           w.w_exits_nvm w.w_evictions w.w_freezes w.w_flushes
           w.w_block_loads w.w_prefetches w.w_occupancy (window_miss_rate w)
           e.e_total e.e_cpu e.e_fram_read e.e_fram_write e.e_sram))
    ws;
  Buffer.contents buf

let render_heatmaps t =
  let max_rows = 24 in
  let ws = windows t in
  let label w = Printf.sprintf "@%d" w.w_start in
  let fram_rows =
    List.map (fun w -> (label w, Histogram.counts w.w_fram_hist)) ws
  in
  let sram_rows =
    List.map (fun w -> (label w, Histogram.counts w.w_sram_hist)) ws
  in
  Heatmap.render ~max_rows ~title:"FRAM accesses" ~lo:t.fram_lo ~hi:t.fram_hi
    fram_rows
  ^ "\n"
  ^ Heatmap.render ~max_rows ~title:"SRAM accesses" ~lo:t.sram_lo ~hi:t.sram_hi
      sram_rows

let render_mrc ?(budgets = default_budgets) t =
  match reuse_tracker t with
  | None -> "miss-ratio curve: reuse tracking disabled\n"
  | Some r ->
      let buf = Buffer.create 512 in
      let gran =
        match t.spec.reuse with
        | Functions -> "function"
        | Lines n -> Printf.sprintf "%d-byte line" n
        | No_reuse -> "none"
      in
      Buffer.add_string buf
        (Printf.sprintf
           "miss-ratio curve  (%s granularity, %d accesses, footprint %d B, %d units)\n"
           gran (Reuse.accesses r) (Reuse.footprint r) (Reuse.units r));
      List.iter
        (fun (b, rate) ->
          let marker =
            if t.spec.config_budget > 0 && b = t.spec.config_budget then
              "  <- configured"
            else ""
          in
          Buffer.add_string buf
            (Printf.sprintf "  %6d B  %8.4f%%  %s%s\n" b (100.0 *. rate)
               (String.make
                  (int_of_float (60.0 *. rate +. 0.5))
                  '#')
               marker))
        (Reuse.curve r ~budgets);
      if t.spec.config_budget > 0 then
        Buffer.add_string buf
          (Printf.sprintf
             "  predicted @ %d B: %.4f%%   measured: %.4f%%   (%d/%d misses)\n"
             t.spec.config_budget
             (100.0 *. Reuse.predicted_miss_rate r ~budget:t.spec.config_budget)
             (100.0 *. Reuse.measured_miss_rate r)
             (Reuse.measured_misses r) (Reuse.accesses r));
      Buffer.contents buf
