(* Replay kernel. [load] reduces a trace file to sufficient statistics
   in one pass; [exact] / [simulate] / [mrc] are then pure arithmetic
   over those statistics, which is where the record-once /
   simulate-many speedup comes from. The full-stream [replay_metrics]
   path re-runs the Observe.Metrics sampler over the event stream: its
   decode visitor calls the sampler's per-event entry points with the
   recorded hook answers, allocating nothing per event. Both passes
   decode through [Trace_file]'s fixed read buffer, so their memory
   does not grow with the trace size. *)

module Trace = Msp430.Trace
module Energy = Msp430.Energy
module Platform = Msp430.Platform

type error = Format_error of Trace_file.error | Model_error of string

let error_message = function
  | Format_error e -> Trace_file.error_message e
  | Model_error msg -> msg

type runtime_counts = {
  rc_misses : int;
  rc_evictions : int;
  rc_aborts : int;
  rc_frozen : int;
  rc_too_large : int;
  rc_prefetches : int;
  rc_returns : int;
  rc_flushes : int;
  rc_block_loads : int;
}

type loaded = {
  header : Trace_file.header;
  path : string;
  events : int;
  bytes : int;
  instructions : int;
  by_source : int array;
  unstalled : int;
  recorded_stall : int;
  fram_ifetch : int;
  fram_data_reads : int;
  fram_read_hits : int;
  fram_writes : int;
  sram_ifetch : int;
  sram_data_reads : int;
  sram_writes : int;
  periph_accesses : int;
  calls : int;
  returns : int;
  contention_events : int;
  runtime : runtime_counts;
  refs : refs;
  units : int;
}

and refs = Fn_refs of int array | Line_refs of int array

(* --- Growable int vector ----------------------------------------------- *)

type vec = { mutable a : int array; mutable n : int }

let vec_create () = { a = Array.make 1024 0; n = 0 }

let vec_push v x =
  if v.n = Array.length v.a then begin
    let a = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 a 0 v.n;
    v.a <- a
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let vec_contents v = Array.sub v.a 0 v.n

(* --- Load -------------------------------------------------------------- *)

type accum = {
  mutable ac_instructions : int;
  ac_by_source : int array;
  mutable ac_unstalled : int;
  mutable ac_stall : int;
  mutable ac_fram_ifetch : int;
  mutable ac_fram_data_reads : int;
  mutable ac_fram_read_hits : int;
  mutable ac_fram_writes : int;
  mutable ac_sram_ifetch : int;
  mutable ac_sram_data_reads : int;
  mutable ac_sram_writes : int;
  mutable ac_periph : int;
  mutable ac_calls : int;
  mutable ac_returns : int;
  mutable ac_contention : int;
  mutable ac_fram_this_instr : int;
  mutable ac_miss_enters : int;
  mutable ac_exits_cached : int;
  mutable ac_exits_nvm : int;
  mutable ac_exits_frozen : int;
  mutable ac_exits_too_large : int;
  mutable ac_exits_return : int;
  mutable ac_evictions : int;
  mutable ac_prefetches : int;
  mutable ac_flushes : int;
  mutable ac_block_loads : int;
  ac_functions : bool;
  ac_refs : vec;
  (* Line-granularity recordings bucket each fetch home to its line
     index ([home / ac_line_size]) before RLE: cached fetches repeat
     the block's aligned NVM base and uncached fetches walk word by
     word, but both collapse once bucketed. *)
  ac_line_size : int;
  (* Pending line run (RLE): line index of the run being accumulated
     and how many consecutive fetches hit it; flushed into [ac_refs]
     as a [line; length] pair when the line changes (and at EOF). *)
  mutable ac_line_home : int;
  mutable ac_line_len : int;
  (* Highest unit id pushed into [ac_refs]; lets [simulate] size its
     direct-indexed residency arrays without a pre-pass per cell. *)
  mutable ac_max_unit : int;
}

let fresh_accum functions line_size =
  {
    ac_instructions = 0;
    ac_by_source = Array.make Trace.source_count 0;
    ac_unstalled = 0;
    ac_stall = 0;
    ac_fram_ifetch = 0;
    ac_fram_data_reads = 0;
    ac_fram_read_hits = 0;
    ac_fram_writes = 0;
    ac_sram_ifetch = 0;
    ac_sram_data_reads = 0;
    ac_sram_writes = 0;
    ac_periph = 0;
    ac_calls = 0;
    ac_returns = 0;
    ac_contention = 0;
    ac_fram_this_instr = 0;
    ac_miss_enters = 0;
    ac_exits_cached = 0;
    ac_exits_nvm = 0;
    ac_exits_frozen = 0;
    ac_exits_too_large = 0;
    ac_exits_return = 0;
    ac_evictions = 0;
    ac_prefetches = 0;
    ac_flushes = 0;
    ac_block_loads = 0;
    ac_functions = functions;
    ac_refs = vec_create ();
    ac_line_size = line_size;
    ac_line_home = min_int;
    ac_line_len = 0;
    ac_max_unit = -1;
  }

let push_line a home =
  let line = home / a.ac_line_size in
  if line = a.ac_line_home then a.ac_line_len <- a.ac_line_len + 1
  else begin
    if a.ac_line_len > 0 then begin
      vec_push a.ac_refs a.ac_line_home;
      vec_push a.ac_refs a.ac_line_len
    end;
    a.ac_line_home <- line;
    a.ac_line_len <- 1;
    if line > a.ac_max_unit then a.ac_max_unit <- line
  end

let flush_line a =
  if a.ac_line_len > 0 then begin
    vec_push a.ac_refs a.ac_line_home;
    vec_push a.ac_refs a.ac_line_len;
    a.ac_line_len <- 0;
    a.ac_line_home <- min_int
  end

(* Mirror of Memory's contention model: every [Instr] resets the
   per-instruction FRAM access count ([begin_instruction] is always
   paired with an Instr emission on observed runs), and every FRAM
   access past the first within one instruction costs one
   contention-penalty stall. *)
let note_fram_access a =
  a.ac_fram_this_instr <- a.ac_fram_this_instr + 1;
  if a.ac_fram_this_instr > 1 then a.ac_contention <- a.ac_contention + 1

(* The accumulating visitor is the allocation-free hot loop: every
   callback is straight counter arithmetic (plus a ref push), which is
   what makes loading a multi-hundred-megacycle trace cheaper than
   re-simulating it. *)
let accum_visitor a =
  {
    Trace_file.v_instr =
      (fun i _pc ->
        a.ac_instructions <- a.ac_instructions + 1;
        a.ac_by_source.(i) <- a.ac_by_source.(i) + 1;
        a.ac_fram_this_instr <- 0);
    v_cycles =
      (fun unstalled stall ->
        a.ac_unstalled <- a.ac_unstalled + unstalled;
        a.ac_stall <- a.ac_stall + stall);
    v_fram_read =
      (fun hit _addr ->
        a.ac_fram_data_reads <- a.ac_fram_data_reads + 1;
        if hit then a.ac_fram_read_hits <- a.ac_fram_read_hits + 1;
        note_fram_access a);
    v_fram_ifetch =
      (fun hit _addr home ->
        a.ac_fram_ifetch <- a.ac_fram_ifetch + 1;
        if hit then a.ac_fram_read_hits <- a.ac_fram_read_hits + 1;
        note_fram_access a;
        if not a.ac_functions then push_line a home);
    v_fram_write =
      (fun _addr ->
        a.ac_fram_writes <- a.ac_fram_writes + 1;
        note_fram_access a);
    v_sram_read = (fun _addr -> a.ac_sram_data_reads <- a.ac_sram_data_reads + 1);
    v_sram_ifetch =
      (fun _addr home ->
        a.ac_sram_ifetch <- a.ac_sram_ifetch + 1;
        if not a.ac_functions then push_line a home);
    v_sram_write = (fun _addr -> a.ac_sram_writes <- a.ac_sram_writes + 1);
    v_periph = (fun _addr -> a.ac_periph <- a.ac_periph + 1);
    v_call =
      (fun _target u ->
        a.ac_calls <- a.ac_calls + 1;
        if a.ac_functions && u >= 0 then begin
          vec_push a.ac_refs (u lsl 1);
          if u > a.ac_max_unit then a.ac_max_unit <- u
        end);
    v_return = (fun () -> a.ac_returns <- a.ac_returns + 1);
    v_miss_enter = (fun _rt -> a.ac_miss_enters <- a.ac_miss_enters + 1);
    v_miss_exit =
      (fun _rt disposition fid ->
        (match disposition with
        | "cached" -> a.ac_exits_cached <- a.ac_exits_cached + 1
        | "nvm" -> a.ac_exits_nvm <- a.ac_exits_nvm + 1
        | "frozen" -> a.ac_exits_frozen <- a.ac_exits_frozen + 1
        | "too-large" -> a.ac_exits_too_large <- a.ac_exits_too_large + 1
        | "return" -> a.ac_exits_return <- a.ac_exits_return + 1
        | _ -> ());
        if a.ac_functions && fid >= 0 && disposition <> "return" then begin
          vec_push a.ac_refs ((fid lsl 1) lor 1);
          if fid > a.ac_max_unit then a.ac_max_unit <- fid
        end);
    v_eviction = (fun _fid -> a.ac_evictions <- a.ac_evictions + 1);
    v_freeze = (fun _on -> ());
    v_cache_flush = (fun () -> a.ac_flushes <- a.ac_flushes + 1);
    v_block_load = (fun _nvm -> a.ac_block_loads <- a.ac_block_loads + 1);
    v_prefetch = (fun _fid -> a.ac_prefetches <- a.ac_prefetches + 1);
    v_phase = (fun _name -> ());
  }

let fram_read_misses l = l.fram_ifetch + l.fram_data_reads - l.fram_read_hits

let stall_at l ~wait_states =
  (wait_states * (fram_read_misses l + l.fram_writes))
  + (l.header.Trace_file.contention_penalty * l.contention_events)

(* Process-local loaded-trace cache. Keyed by path but *validated* by
   content: an entry is served only while the file's size, mtime and
   header fingerprint all still match what was loaded, so overwriting
   a trace in place (the staleness regression) can never satisfy a
   cached entry recorded under a different configuration. Forked
   workers inherit the parent's cache at fork time and fill their own
   copy lazily, which is what makes chunked sweeps decode each trace
   once per process instead of once per task. *)

type cache_sig = { cs_size : int; cs_mtime : float; cs_fingerprint : int }

let load_cache : (string, cache_sig * loaded) Hashtbl.t = Hashtbl.create 8
let load_cache_limit = 64

let clear_load_cache () = Hashtbl.reset load_cache

let load path =
  let accum = ref None in
  let make (h : Trace_file.header) =
    let a =
      match h.Trace_file.granularity with
      | Trace_file.Functions _ -> fresh_accum true 1
      | Trace_file.Lines n -> fresh_accum false (max 1 n)
    in
    accum := Some a;
    accum_visitor a
  in
  match Trace_file.iter path ~make with
  | Error e -> Error (Format_error e)
  | Ok (header, events) ->
      let a = match !accum with Some a -> a | None -> assert false in
      flush_line a;
      let bytes =
        match (Unix.stat path).Unix.st_size with
        | n -> n
        | exception Unix.Unix_error _ -> 0
      in
      let runtime =
        {
          (* SwapRAM counts every handler entry as a miss; the block
             cache enters its handler for return traps too, so its
             miss count is the "cached" exits. *)
          rc_misses =
            (match header.Trace_file.granularity with
            | Trace_file.Functions _ -> a.ac_miss_enters
            | Trace_file.Lines _ -> a.ac_exits_cached);
          rc_evictions = a.ac_evictions;
          rc_aborts = a.ac_exits_nvm;
          rc_frozen = a.ac_exits_frozen;
          rc_too_large = a.ac_exits_too_large;
          rc_prefetches = a.ac_prefetches;
          rc_returns = a.ac_exits_return;
          rc_flushes = a.ac_flushes;
          rc_block_loads = a.ac_block_loads;
        }
      in
      let l =
        {
          header;
          path;
          events;
          bytes;
          instructions = a.ac_instructions;
          by_source = a.ac_by_source;
          unstalled = a.ac_unstalled;
          recorded_stall = a.ac_stall;
          fram_ifetch = a.ac_fram_ifetch;
          fram_data_reads = a.ac_fram_data_reads;
          fram_read_hits = a.ac_fram_read_hits;
          fram_writes = a.ac_fram_writes;
          sram_ifetch = a.ac_sram_ifetch;
          sram_data_reads = a.ac_sram_data_reads;
          sram_writes = a.ac_sram_writes;
          periph_accesses = a.ac_periph;
          calls = a.ac_calls;
          returns = a.ac_returns;
          contention_events = a.ac_contention;
          runtime;
          refs =
            (if a.ac_functions then Fn_refs (vec_contents a.ac_refs)
             else Line_refs (vec_contents a.ac_refs));
          units = a.ac_max_unit + 1;
        }
      in
      (* The whole exactness story rests on the stall total being a
         function of (wait states, FRAM miss/write counts, contention
         events); refuse a trace where it is not. *)
      let reconstructed =
        stall_at l ~wait_states:header.Trace_file.wait_states
      in
      if reconstructed <> l.recorded_stall then
        Error
          (Model_error
             (Printf.sprintf
                "stall reconstruction mismatch: recorded %d, reconstructed %d \
                 at %d wait states"
                l.recorded_stall reconstructed
                header.Trace_file.wait_states))
      else Ok l

let load_cached path =
  let signature () =
    match Unix.stat path with
    | st -> Some (st.Unix.st_size, st.Unix.st_mtime)
    | exception Unix.Unix_error _ -> None
  in
  match Trace_file.read_header path with
  | Error e -> Error (Format_error e)
  | Ok h -> (
      let fp = h.Trace_file.fingerprint in
      let sg = signature () in
      match (Hashtbl.find_opt load_cache path, sg) with
      | Some (c, l), Some (size, mtime)
        when c.cs_size = size && c.cs_mtime = mtime && c.cs_fingerprint = fp ->
          Ok l
      | _ -> (
          match load path with
          | Error _ as e -> e
          | Ok l ->
              (match sg with
              | Some (size, mtime) ->
                  if Hashtbl.length load_cache >= load_cache_limit then
                    Hashtbl.reset load_cache;
                  Hashtbl.replace load_cache path
                    ( { cs_size = size; cs_mtime = mtime; cs_fingerprint = fp },
                      l )
              | None -> ());
              Ok l))

let unit_bytes l u =
  match l.header.Trace_file.granularity with
  | Trace_file.Functions sizes ->
      if u >= 0 && u < Array.length sizes then sizes.(u) else 0
  | Trace_file.Lines n -> n

let line_bytes l =
  match l.header.Trace_file.granularity with
  | Trace_file.Lines n -> n
  | Trace_file.Functions _ -> 64

(* Iterate maximal same-unit runs: [f unit bytes len]. Function refs
   are single-access runs; line refs arrive RLE-packed from [load] as
   recorded-granularity line indices, so a requested block size is
   honoured at the nearest multiple of the recorded line size (indices
   cannot be split below the granularity they were bucketed at). *)
let iter_runs l ~block f =
  match l.refs with
  | Fn_refs a ->
      Array.iter (fun x -> f (x lsr 1) (unit_bytes l (x lsr 1)) 1) a
  | Line_refs a ->
      let slot = line_bytes l in
      let factor = max 1 (block / slot) in
      let bytes = factor * slot in
      let n = Array.length a in
      let i = ref 0 in
      while !i < n do
        f (a.(!i) / factor) bytes a.(!i + 1);
        i := !i + 2
      done

(* --- Exact replay ------------------------------------------------------ *)

type totals = {
  t_frequency_mhz : int;
  t_wait_states : int;
  t_unstalled : int;
  t_stall : int;
  t_cycles : int;
  t_fram_read_misses : int;
  t_energy_nj : float;
  t_time_s : float;
}

let exact ?frequency_mhz l =
  let mhz =
    match frequency_mhz with
    | Some m -> m
    | None -> l.header.Trace_file.frequency_mhz
  in
  match mhz with
  | (8 | 24) as mhz ->
      let wait_states = if mhz = 8 then 0 else 3 in
      let params = if mhz = 8 then Energy.point_8mhz else Energy.point_24mhz in
      let stall = stall_at l ~wait_states in
      let cycles = l.unstalled + stall in
      let report =
        Energy.evaluate_counts params ~cycles
          ~fram_read_misses:(fram_read_misses l)
          ~fram_read_hits:l.fram_read_hits ~fram_writes:l.fram_writes
          ~sram_accesses:(l.sram_ifetch + l.sram_data_reads + l.sram_writes)
      in
      Ok
        {
          t_frequency_mhz = mhz;
          t_wait_states = wait_states;
          t_unstalled = l.unstalled;
          t_stall = stall;
          t_cycles = cycles;
          t_fram_read_misses = fram_read_misses l;
          t_energy_nj = report.Energy.energy_nj;
          t_time_s = report.Energy.time_s;
        }
  | m -> Error (Printf.sprintf "unsupported frequency %d MHz (8 or 24)" m)

(* --- Cache-model simulation -------------------------------------------- *)

type policy = Lru | Lfu | Cost_aware

let policy_name = function
  | Lru -> "lru"
  | Lfu -> "lfu"
  | Cost_aware -> "cost"

let policy_of_string = function
  | "lru" -> Some Lru
  | "lfu" -> Some Lfu
  | "cost" | "cost-aware" | "cost_aware" -> Some Cost_aware
  | _ -> None

type model = { m_budget : int; m_policy : policy; m_block : int option }

type sim = {
  s_refs : int;
  s_misses : int;
  s_cold_misses : int;
  s_evictions : int;
  s_bytes_loaded : int;
  s_miss_rate : float;
}

let effective_block l block =
  match (l.refs, block) with
  | Line_refs _, Some b when b > 0 -> b
  | _ -> line_bytes l

let sim_block l m = effective_block l m.m_block

let empty_sim =
  {
    s_refs = 0;
    s_misses = 0;
    s_cold_misses = 0;
    s_evictions = 0;
    s_bytes_loaded = 0;
    s_miss_rate = 0.0;
  }

(* Unit ids are small dense ints (line indices of a 64 KiB address
   space, or function ids), so residency state lives in flat arrays
   indexed by unit — no hashing on the per-run hot path, which is
   what keeps an eviction-heavy cell (LFU under thrash) cheap. The
   index bound comes from [l.units]; a block-size override only
   merges recorded units, so dividing the bound by the merge factor
   still covers every rebucketed id. *)
let sim_units l ~block =
  match l.refs with
  | Fn_refs _ -> l.units
  | Line_refs _ ->
      if l.units = 0 then 0
      else
        let factor = max 1 (block / line_bytes l) in
        ((l.units - 1) / factor) + 1

(* Totals of a run stream: reference count, distinct units, their
   summed bytes (the code footprint at this block size) and the
   distinct unit sizes, ascending (the cut points of the LRU budget
   axis's bypass classes). *)
type stream_totals = {
  tt_refs : int;
  tt_distinct : int;
  tt_footprint : int;
  tt_sizes : int list;
}

let stream_totals ~units iter =
  let seen = Array.make (max units 1) false in
  let refs = ref 0 in
  let distinct = ref 0 in
  let footprint = ref 0 in
  let sizes = ref [] in
  iter (fun u bytes len ->
      refs := !refs + len;
      if not (Array.unsafe_get seen u) then begin
        seen.(u) <- true;
        incr distinct;
        footprint := !footprint + bytes;
        sizes := bytes :: !sizes
      end);
  {
    tt_refs = !refs;
    tt_distinct = !distinct;
    tt_footprint = !footprint;
    tt_sizes = List.sort_uniq compare !sizes;
  }

let footprint l =
  let block = line_bytes l in
  (stream_totals ~units:(sim_units l ~block) (iter_runs l ~block)).tt_footprint

(* Residency state for a unit-id bound; allocated once per
   (trace, block) group in [simulate_many] and reset between models,
   so a batch pays the allocation and GC cost once instead of once per
   cell. [st_touched] records each unit the pass marked seen (every
   other per-unit write implies seen), so the reset clears only those
   entries — proportional to the trace's distinct units, not the
   unit-id bound, which matters on a small trace swept under many
   models. The [hp_*] arrays back the lazy min-heap used for victim
   selection: at most one entry per resident unit, so capacity [n]
   can never overflow. [st_hi] is the exclusive end of the budget
   interval the last pass answers (see [sim_core]). *)
type sim_state = {
  st_size : int array;
  st_last : int array;
  st_uses : int array;
  st_resident : bool array;
  st_seen : bool array;
  st_touched : int array;
  mutable st_ntouched : int;
  hp_key : int array;
  hp_last : int array;
  hp_unit : int array;
  mutable hp_n : int;
  mutable st_hi : int;
}

let make_state n =
  {
    st_size = Array.make n 0;
    st_last = Array.make n 0;
    st_uses = Array.make n 0;
    st_resident = Array.make n false;
    st_seen = Array.make n false;
    st_touched = Array.make n 0;
    st_ntouched = 0;
    hp_key = Array.make n 0;
    hp_last = Array.make n 0;
    hp_unit = Array.make n 0;
    hp_n = 0;
    st_hi = max_int;
  }

let reset_state st =
  for i = 0 to st.st_ntouched - 1 do
    let u = Array.unsafe_get st.st_touched i in
    st.st_size.(u) <- 0;
    st.st_last.(u) <- 0;
    st.st_uses.(u) <- 0;
    st.st_resident.(u) <- false;
    st.st_seen.(u) <- false
  done;
  st.st_ntouched <- 0;
  st.hp_n <- 0

(* One cache-model pass over a run stream. [iter] feeds maximal
   same-unit runs as [f unit bytes len]; both [simulate] (streaming
   straight off the loaded refs) and [simulate_many] (replaying a
   pre-bucketed stream) funnel into this single implementation, so the
   batched path cannot drift from the reference one.

   The pass also leaves in [st.st_hi] the least budget above [budget]
   that could change its outcome: the minimum of [occupancy + bytes]
   over every eviction test that came out true, and of [bytes] over
   every bypassed unit ([max_int] if neither happened). The budget is
   read only by those two tests, and the victim choice never reads it.
   At any B' in [budget, st_hi) a true eviction test stays true
   (B' < occupancy + bytes), a false one stays false (it held at the
   smaller budget), and the same holds for the bypass test; so by
   induction over the stream the state, and the sim, are identical. *)
let sim_core st ~budget ~policy iter =
  let r_size = st.st_size in
  let r_last = st.st_last in
  let r_uses = st.st_uses in
  let resident = st.st_resident in
  let seen = st.st_seen in
  let hp_key = st.hp_key in
  let hp_last = st.hp_last in
  let hp_unit = st.hp_unit in
  let occupancy = ref 0 in
  let clock = ref 0 in
  let refs = ref 0 in
  let misses = ref 0 in
  let cold = ref 0 in
  let evictions = ref 0 in
  let loaded = ref 0 in
  let hi = ref max_int in
  (* Eviction order is the lexicographic (metric, last-use) minimum;
     [r_last] is unique, so the order is total and the victim matches
     what a full linear scan with the same strict-< comparison picks —
     scan order and heap shape never show. *)
  let key_of =
    match policy with
    | Lru -> fun u -> Array.unsafe_get r_last u
    | Lfu -> fun u -> Array.unsafe_get r_uses u
    | Cost_aware ->
        fun u -> Array.unsafe_get r_uses u * Array.unsafe_get r_size u
  in
  (* Lazy min-heap over (key, last, unit): entries are pushed at insert
     time and never updated on a hit, so an entry can go stale — but
     every policy metric only grows with further use, so a stale entry
     under-states its unit's current key. Popping therefore re-keys a
     stale root in place and retries; the first root whose stored key
     matches the live key is the true minimum over current keys. Each
     hit creates at most one stale entry, so the amortized cost is
     O(log resident) per reference instead of the old O(resident)
     scan per eviction. *)
  let sift_up i0 k l u =
    let i = ref i0 in
    let stop = ref false in
    while (not !stop) && !i > 0 do
      let p = (!i - 1) / 2 in
      let pk = Array.unsafe_get hp_key p in
      if pk > k || (pk = k && Array.unsafe_get hp_last p > l) then begin
        hp_key.(!i) <- pk;
        hp_last.(!i) <- Array.unsafe_get hp_last p;
        hp_unit.(!i) <- Array.unsafe_get hp_unit p;
        i := p
      end
      else stop := true
    done;
    hp_key.(!i) <- k;
    hp_last.(!i) <- l;
    hp_unit.(!i) <- u
  in
  (* Place (k, l, u) starting at the root and restore heap order. *)
  let sift_down k l u =
    let n = st.hp_n in
    let i = ref 0 in
    let stop = ref false in
    while not !stop do
      let c1 = (2 * !i) + 1 in
      if c1 >= n then stop := true
      else begin
        let c2 = c1 + 1 in
        let c =
          if
            c2 < n
            && (hp_key.(c2) < hp_key.(c1)
               || (hp_key.(c2) = hp_key.(c1) && hp_last.(c2) < hp_last.(c1)))
          then c2
          else c1
        in
        let ck = Array.unsafe_get hp_key c in
        if ck < k || (ck = k && Array.unsafe_get hp_last c < l) then begin
          hp_key.(!i) <- ck;
          hp_last.(!i) <- Array.unsafe_get hp_last c;
          hp_unit.(!i) <- Array.unsafe_get hp_unit c;
          i := c
        end
        else stop := true
      end
    done;
    hp_key.(!i) <- k;
    hp_last.(!i) <- l;
    hp_unit.(!i) <- u
  in
  let push k l u =
    let n = st.hp_n in
    st.hp_n <- n + 1;
    sift_up n k l u
  in
  let rec victim () =
    let u = hp_unit.(0) in
    let ck = key_of u in
    let cl = Array.unsafe_get r_last u in
    if hp_key.(0) = ck && hp_last.(0) = cl then begin
      let n = st.hp_n - 1 in
      st.hp_n <- n;
      if n > 0 then sift_down hp_key.(n) hp_last.(n) hp_unit.(n);
      u
    end
    else begin
      sift_down ck cl u;
      victim ()
    end
  in
  (* Run semantics are exact: within a same-unit run only the first
     access can miss (the unit is resident afterwards), so a hit run
     adds [len] uses and moves recency to the run's last access, and a
     miss run is one miss plus [len - 1] immediate hits — except for a
     unit larger than the whole budget, where every access of the run
     misses, exactly as the per-access loop would count. *)
  iter (fun u bytes len ->
      refs := !refs + len;
      clock := !clock + len;
      if resident.(u) then begin
        r_last.(u) <- !clock;
        r_uses.(u) <- r_uses.(u) + len
      end
      else begin
        if not seen.(u) then begin
          seen.(u) <- true;
          st.st_touched.(st.st_ntouched) <- u;
          st.st_ntouched <- st.st_ntouched + 1;
          incr cold
        end;
        if bytes <= budget then begin
          incr misses;
          while !occupancy + bytes > budget do
            if !occupancy + bytes < !hi then hi := !occupancy + bytes;
            let k = victim () in
            resident.(k) <- false;
            occupancy := !occupancy - r_size.(k);
            incr evictions
          done;
          resident.(u) <- true;
          r_size.(u) <- bytes;
          r_last.(u) <- !clock;
          r_uses.(u) <- len;
          occupancy := !occupancy + bytes;
          loaded := !loaded + bytes;
          push (key_of u) !clock u
        end
        else begin
          if bytes < !hi then hi := bytes;
          misses := !misses + len
        end
      end);
  st.st_hi <- !hi;
  {
    s_refs = !refs;
    s_misses = !misses;
    s_cold_misses = !cold;
    s_evictions = !evictions;
    s_bytes_loaded = !loaded;
    s_miss_rate =
      (if !refs = 0 then 0.0 else float_of_int !misses /. float_of_int !refs);
  }

let simulate l m =
  let block = sim_block l m in
  sim_core
    (make_state (sim_units l ~block))
    ~budget:m.m_budget ~policy:m.m_policy (iter_runs l ~block)

(* Pre-bucketed run stream for a batch: [iter_runs] is walked once per
   effective block size and the resulting (unit, bytes, len) triples
   are materialized with adjacent same-unit runs merged. Merging is
   exact under the run semantics above: a resident unit re-hit simply
   extends the run (same uses, same final recency), and a non-fitting
   unit misses once per access whether the accesses arrive as one run
   or several. *)
type prepared = {
  pp_units : int array;
  pp_bytes : int array;
  pp_lens : int array;
  pp_runs : int;
}

let prepare l ~block =
  let units = vec_create () in
  let bytes = vec_create () in
  let lens = vec_create () in
  let last = ref min_int in
  iter_runs l ~block (fun u b len ->
      if u = !last then lens.a.(lens.n - 1) <- lens.a.(lens.n - 1) + len
      else begin
        last := u;
        vec_push units u;
        vec_push bytes b;
        vec_push lens len
      end);
  {
    pp_units = vec_contents units;
    pp_bytes = vec_contents bytes;
    pp_lens = vec_contents lens;
    pp_runs = units.n;
  }

let iter_prepared p f =
  for i = 0 to p.pp_runs - 1 do
    f
      (Array.unsafe_get p.pp_units i)
      (Array.unsafe_get p.pp_bytes i)
      (Array.unsafe_get p.pp_lens i)
  done

(* --- Single-pass all-budget LRU simulation ------------------------------ *)

(* Exact LRU results for every budget in [budgets] (sorted ascending,
   distinct) from O(groups) passes over the run stream instead of one
   pass per budget.

   LRU with evict-until-fit keeps the resident set equal to the
   maximal byte-fitting prefix of the recency stack *restricted to
   eligible units* (those with bytes <= budget): a hit preserves the
   prefix (the unit moves to the top), and a miss-insert evicts from
   the prefix's bottom until the new top fits, with maximality
   witnessed by the last victim. So an eligible re-access hits at
   budget B iff its byte-weighted stack distance d — bytes of eligible
   units at or above it on the stack, self included — satisfies
   d <= B, which is Mattson's inclusion property, byte-weighted: the
   eligible stream's {!Observe.Reuse} histogram answers every budget.

   The wrinkle is eligibility: [sim_core] bypasses a unit larger than
   the whole budget, so the *filtered* stack differs between budgets
   separated by some unit size, and a single stack does not serve all
   budgets. Budgets are therefore partitioned into eligibility groups
   — split at every distinct unit size inside (min budget, max budget]
   — and each group feeds its eligible runs to a fresh tracker. On
   real grids the distinct sizes are few (one per block size for line
   traces, per-function sizes for SwapRAM), so hundreds of budgets
   collapse to a handful of passes.

   Per budget of a group, misses and bytes loaded are the tracker's
   (a run's first access misses at budgets below its distance, the
   rest hit), plus the group's bypassed references, each a miss.
   Evictions come from conservation — every eligible miss inserts one
   unit, so evictions(B) = eligible misses(B) minus the units resident
   at the end, and the end-resident count per budget is one MRU-to-LRU
   cumulative walk of the tracker's stack with an ascending-budget
   pointer. Cold misses are budget-independent ([sim_core] counts
   first touches before the fit check).

   Exactness relies on a unit's [bytes] being constant across the
   stream, which [iter_runs] guarantees for both granularities. *)
let lru_all_budgets totals ~budgets iter =
  let nb = Array.length budgets in
  let sims = Array.make nb empty_sim in
  let group lo hi =
    (* Every budget in [lo..hi] admits exactly the units with
       bytes <= budgets.(lo). *)
    let t = budgets.(lo) in
    let r = Observe.Reuse.create () in
    let bypass = ref 0 in
    iter (fun u bytes len ->
        if bytes > t then bypass := !bypass + len
        else Observe.Reuse.access r ~unit_id:u ~bytes ~len);
    let at = Observe.Reuse.at_budgets r (Array.sub budgets lo (hi - lo + 1)) in
    let finish j resident =
      let eligible, fill = at.(j - lo) in
      let misses = eligible + !bypass in
      sims.(j) <-
        {
          s_refs = totals.tt_refs;
          s_misses = misses;
          s_cold_misses = totals.tt_distinct;
          s_evictions = eligible - resident;
          s_bytes_loaded = fill;
          s_miss_rate =
            (if totals.tt_refs = 0 then 0.0
             else float_of_int misses /. float_of_int totals.tt_refs);
        }
    in
    (* End-of-trace residents: walking the stack MRU-to-LRU while
       advancing an ascending budget pointer finalizes each budget
       the moment the next unit no longer fits. *)
    let j = ref lo in
    let _, resident =
      Observe.Reuse.fold_stack r ~init:(0, 0) (fun (cum, cnt) bytes ->
          let cum = cum + bytes in
          while !j <= hi && budgets.(!j) < cum do
            finish !j cnt;
            incr j
          done;
          (cum, cnt + 1))
    in
    for k = !j to hi do
      finish k resident
    done
  in
  (* A budget's eligibility class is how many distinct sizes it
     admits; a group is a maximal run of budgets in one class. *)
  let sizes = ref totals.tt_sizes in
  let admitted = ref 0 in
  let class_of b =
    while (match !sizes with s :: _ -> s <= b | [] -> false) do
      sizes := List.tl !sizes;
      incr admitted
    done;
    !admitted
  in
  if nb > 0 then begin
    let lo = ref 0 in
    let cls = ref (class_of budgets.(0)) in
    for i = 1 to nb do
      let c = if i < nb then class_of budgets.(i) else -1 in
      if c <> !cls then begin
        group !lo (i - 1);
        lo := i;
        cls := c
      end
    done
  end;
  sims

(* --- Budget-interval ladders --------------------------------------------- *)

(* A budget >= the stream footprint never evicts or bypasses under any
   policy — every unit fits forever — so each distinct unit misses
   exactly once and the sim is policy-independent and closed-form. *)
let beyond_footprint { tt_refs; tt_distinct; tt_footprint; _ } =
  {
    s_refs = tt_refs;
    s_misses = tt_distinct;
    s_cold_misses = tt_distinct;
    s_evictions = 0;
    s_bytes_loaded = tt_footprint;
    s_miss_rate =
      (if tt_refs = 0 then 0.0
       else float_of_int tt_distinct /. float_of_int tt_refs);
  }

(* Exact results for every budget in [budgets] (sorted ascending,
   distinct) under any policy, from one [sim_core] pass per budget
   interval instead of one per budget: a pass at B answers every budget
   in [B, st_hi) (see [sim_core]), so a later budget below the last
   pass's [st_hi] takes its sim. This is the ladder kernel for LFU and
   Cost_aware, which are not stack algorithms (LFU's use count restarts
   on insert), so no single stack pass can serve them. The
   beyond-footprint tail of a ladder is the [st_hi = max_int] interval;
   its closed form saves that last pass, at the price of the lazy
   [totals] pass that a block's ladders share. *)
let interval_ladder st ~policy totals iter budgets =
  let sims = Array.make (Array.length budgets) empty_sim in
  let hi = ref min_int in
  Array.iteri
    (fun j budget ->
      if budget < !hi then sims.(j) <- sims.(j - 1)
      else if budget >= (Lazy.force totals).tt_footprint then begin
        sims.(j) <- beyond_footprint (Lazy.force totals);
        hi := max_int
      end
      else begin
        reset_state st;
        sims.(j) <- sim_core st ~budget ~policy iter;
        hi := st.st_hi
      end)
    budgets;
  sims

(* Run a ladder kernel on budgets in arbitrary order (with duplicates):
   sort-unique for the kernel, then map each requested budget back to
   its slot. *)
let unsorted kernel budgets =
  let sorted = Array.of_list (List.sort_uniq compare budgets) in
  let sims = kernel sorted in
  let idx = Hashtbl.create (Array.length sorted) in
  Array.iteri (fun i b -> Hashtbl.replace idx b i) sorted;
  List.map (fun b -> sims.(Hashtbl.find idx b)) budgets

let lru_ladder totals iter budgets =
  unsorted (fun budgets -> lru_all_budgets totals ~budgets iter) budgets

(* Whether a ladder goes to the LRU stack kernel; its models are the
   ones [sims_collapsed] counts. A lone LRU budget gains nothing from
   the kernel and takes one [sim_core] pass. *)
let stack_collapses policy budgets =
  match (policy, budgets) with Lru, _ :: _ :: _ -> true | _ -> false

(* One (policy, block) budget ladder, results in input order. [totals]
   is the stream's lazy totals pass, shared by a block's ladders. *)
let ladder ~units ~policy totals iter budgets =
  if stack_collapses policy budgets then
    lru_ladder (Lazy.force totals) iter budgets
  else
    unsorted (interval_ladder (make_state units) ~policy totals iter) budgets

let simulate_all_budgets ?block l budgets =
  let block = effective_block l block in
  let iter = iter_prepared (prepare l ~block) in
  lru_ladder (stream_totals ~units:(sim_units l ~block) iter) iter budgets

(* Test hooks: the same kernels over a synthetic (unit, bytes, len)
   run array, so properties can compare them without recording a
   trace. *)
let iter_run_array runs f = Array.iter (fun (u, b, len) -> f u b len) runs

let simulate_runs ~units ~budget ~policy runs =
  sim_core (make_state units) ~budget ~policy (iter_run_array runs)

let simulate_runs_interval ~units ~budget ~policy runs =
  let st = make_state units in
  let sim = sim_core st ~budget ~policy (iter_run_array runs) in
  (sim, st.st_hi)

let simulate_runs_all_budgets ~units ~budgets runs =
  let iter = iter_run_array runs in
  lru_ladder (stream_totals ~units iter) iter budgets

let simulate_runs_ladder ~units ~policy ~budgets runs =
  let iter = iter_run_array runs in
  ladder ~units ~policy (lazy (stream_totals ~units iter)) iter budgets

let simulate_many_collapsed l models =
  match models with
  | [] -> ([], 0)
  | [ m ] -> ([ simulate l m ], 0)
  | _ ->
      (* Group models by effective block size, then by policy: each
         block shares one pre-bucketed run stream, and each (policy,
         block) group is one budget ladder — the LRU stack kernel, or
         one [sim_core] pass per budget interval for LFU and
         Cost_aware — and a block's ladders share one totals pass.
         Results land at their input index, so group iteration order
         never shows. *)
      let arr = Array.of_list models in
      let nm = Array.length arr in
      let out = Array.make nm empty_sim in
      let groups = Hashtbl.create 4 in
      for i = nm - 1 downto 0 do
        let block = sim_block l arr.(i) in
        let cur = try Hashtbl.find groups block with Not_found -> [] in
        Hashtbl.replace groups block (i :: cur)
      done;
      let collapsed = ref 0 in
      Hashtbl.iter
        (fun block idxs ->
          let iter = iter_prepared (prepare l ~block) in
          let units = sim_units l ~block in
          let totals = lazy (stream_totals ~units iter) in
          List.iter
            (fun policy ->
              match List.filter (fun i -> arr.(i).m_policy = policy) idxs with
              | [] -> ()
              | is ->
                  let budgets = List.map (fun i -> arr.(i).m_budget) is in
                  if stack_collapses policy budgets then
                    collapsed := !collapsed + List.length is;
                  List.iter2
                    (fun i sim -> out.(i) <- sim)
                    is
                    (ladder ~units ~policy totals iter budgets))
            [ Lru; Lfu; Cost_aware ])
        groups;
      (Array.to_list out, !collapsed)

let simulate_many l models = fst (simulate_many_collapsed l models)

(* --- MRC --------------------------------------------------------------- *)

let mrc l =
  let r = Observe.Reuse.create () in
  iter_runs l ~block:(line_bytes l) (fun unit_id bytes len ->
      Observe.Reuse.access r ~unit_id ~bytes ~len);
  let measured =
    match l.refs with
    | Fn_refs a -> Array.fold_left (fun n x -> n + (x land 1)) 0 a
    | Line_refs _ -> l.runtime.rc_block_loads
  in
  for _ = 1 to measured do
    Observe.Reuse.note_measured_miss r
  done;
  r

(* --- Full metrics replay ----------------------------------------------- *)

(* The sampler's entry points are called straight from the decode loop
   with the recorded hook answers, so replaying builds no event and
   allocates nothing per event. *)
let metrics_visitor m =
  let module M = Observe.Metrics in
  {
    Trace_file.v_instr = (fun _source _pc -> M.on_instr m);
    v_cycles = (fun unstalled stall -> M.on_cycles m unstalled stall);
    v_fram_read = (fun hit addr -> M.on_fram_read m hit addr);
    v_fram_ifetch = (fun hit addr home -> M.on_fram_ifetch m hit addr home);
    v_fram_write = (fun addr -> M.on_fram_write m addr);
    v_sram_read = (fun addr -> M.on_sram m addr);
    v_sram_ifetch = (fun addr home -> M.on_sram_ifetch m addr home);
    v_sram_write = (fun addr -> M.on_sram m addr);
    v_periph = (fun _addr -> M.on_periph m);
    v_call = (fun _target u -> M.on_call m u);
    v_return = (fun () -> M.on_return m);
    v_miss_enter = (fun _runtime -> M.on_miss_enter m);
    v_miss_exit =
      (fun _runtime disposition fid -> M.on_miss_exit m disposition fid);
    v_eviction = (fun fid -> M.on_eviction m fid);
    v_freeze = (fun on -> M.on_freeze m on);
    v_cache_flush = (fun () -> M.on_cache_flush m);
    v_block_load = (fun _nvm -> M.on_block_load m);
    v_prefetch = (fun fid -> M.on_prefetch m fid);
    v_phase = (fun _name -> ());
  }

let replay_metrics ?(window = 65536) ?(buckets = 48) path =
  match Trace_file.read_header path with
  | Error e -> Error (Format_error e)
  | Ok h -> (
      (* Checked on the header alone, before the event stream is decoded. *)
      match h.Trace_file.frequency_mhz with
      | (8 | 24) as mhz -> (
          let params =
            if mhz = 8 then Energy.point_8mhz else Energy.point_24mhz
          in
          let metrics = ref None in
          let make (h : Trace_file.header) =
            let reuse, sizes =
              match h.Trace_file.granularity with
              | Trace_file.Functions sizes -> (Observe.Metrics.Functions, sizes)
              | Trace_file.Lines n -> (Observe.Metrics.Lines n, [||])
            in
            let hooks =
              {
                Observe.Metrics.null_hooks with
                h_fid_size =
                  (fun fid ->
                    if fid >= 0 && fid < Array.length sizes then sizes.(fid)
                    else 0);
              }
            in
            let m =
              Observe.Metrics.create
                {
                  Observe.Metrics.window_cycles = window;
                  buckets;
                  reuse;
                  config_budget = h.Trace_file.budget;
                }
                ~params
                ~fram:
                  (Platform.fram_base, Platform.fram_base + Platform.fram_size)
                ~sram:
                  (Platform.sram_base, Platform.sram_base + Platform.sram_size)
                hooks
            in
            metrics := Some m;
            metrics_visitor m
          in
          match (Trace_file.iter path ~make, !metrics) with
          | Error e, _ -> Error (Format_error e)
          | Ok (header, _), Some m -> Ok (m, header)
          | Ok _, None -> assert false)
      | m ->
          Error
            (Model_error
               (Printf.sprintf "unsupported recorded frequency %d MHz" m)))
