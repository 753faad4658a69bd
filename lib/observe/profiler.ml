(* Cycle-attributed profiler.

   A Trace sink that attributes every counted cycle and memory access
   to the function whose instruction caused it. The attribution
   context is set by each [instr] callback (symbolized through
   {!Symtab}); all cycles and memory accesses until the next [instr]
   charge that function's counters.

   Because every counter increment in the simulator is mirrored to the
   sink *after* the aggregate counter was bumped, the per-function
   sums reconcile with the aggregate {!Msp430.Trace} totals exactly —
   not approximately. The property tests assert this, and it is what
   makes per-function energy attribution sound: the energy model is
   linear in the counters, so slice energies sum to the whole-run
   report.

   A shadow call stack (pushed by [call], popped by [return]) keys the
   caller-aggregated folded-stack output consumed by flame graph
   tooling. Calls nested past [max_depth] are counted, not pushed, and
   their returns unwind that count before they pop a frame. *)

type counters = {
  mutable instrs : int;
  mutable unstalled : int;
  mutable stall : int;
  mutable fram_read_hits : int;
  mutable fram_read_misses : int;
  mutable fram_writes : int;
  mutable sram_accesses : int;
}

let fresh_counters () =
  {
    instrs = 0;
    unstalled = 0;
    stall = 0;
    fram_read_hits = 0;
    fram_read_misses = 0;
    fram_writes = 0;
    sram_accesses = 0;
  }

let add_into acc c =
  acc.instrs <- acc.instrs + c.instrs;
  acc.unstalled <- acc.unstalled + c.unstalled;
  acc.stall <- acc.stall + c.stall;
  acc.fram_read_hits <- acc.fram_read_hits + c.fram_read_hits;
  acc.fram_read_misses <- acc.fram_read_misses + c.fram_read_misses;
  acc.fram_writes <- acc.fram_writes + c.fram_writes;
  acc.sram_accesses <- acc.sram_accesses + c.sram_accesses

type t = {
  symtab : Symtab.t;
  funcs : (string, counters) Hashtbl.t;
  by_source : counters array; (* indexed by Trace.source_index *)
  folded : (string, int ref) Hashtbl.t; (* "a;b;c" -> cycles *)
  mutable stack : string list; (* shadow call stack, callers only *)
  mutable stack_key : string; (* stack joined with ';', "" if empty *)
  mutable depth : int;
  max_depth : int;
  mutable overflow : int; (* calls past [max_depth] not yet returned *)
  mutable cur : counters;
  mutable cur_name : string;
  mutable cur_source : int;
  mutable cur_folded : int ref;
  mutable folded_dirty : bool; (* stack moved since cur_folded was set *)
  name_calls : (string, int ref) Hashtbl.t;
      (* dynamic calls by symbolized target — calls that trap into a
         miss handler count under the trap's name, not the callee's *)
  fid_misses : (int, int ref) Hashtbl.t;
      (* swapram miss-handler exits by fid (any disposition) *)
}

let boot_name = "_boot"

let create symtab =
  let funcs = Hashtbl.create 64 in
  (* Attribution target before the first Instr event: cycles charged
     by harness bootstrapping, if any. *)
  let boot = fresh_counters () in
  Hashtbl.replace funcs boot_name boot;
  let folded = Hashtbl.create 256 in
  let boot_slot = ref 0 in
  Hashtbl.replace folded boot_name boot_slot;
  {
    symtab;
    funcs;
    by_source = Array.init Msp430.Trace.source_count (fun _ -> fresh_counters ());
    folded;
    stack = [];
    stack_key = "";
    depth = 0;
    max_depth = 128;
    overflow = 0;
    cur = boot;
    cur_name = boot_name;
    cur_source = 0;
    cur_folded = boot_slot;
    folded_dirty = false;
    name_calls = Hashtbl.create 64;
    fid_misses = Hashtbl.create 64;
  }

let counters_for t name =
  match Hashtbl.find_opt t.funcs name with
  | Some c -> c
  | None ->
      let c = fresh_counters () in
      Hashtbl.replace t.funcs name c;
      c

let folded_slot t key =
  match Hashtbl.find_opt t.folded key with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace t.folded key r;
      r

let set_context t name =
  if name <> t.cur_name || t.folded_dirty then begin
    if name <> t.cur_name then begin
      t.cur <- counters_for t name;
      t.cur_name <- name
    end;
    t.cur_folded <-
      folded_slot t
        (if t.stack_key = "" then name else t.stack_key ^ ";" ^ name);
    t.folded_dirty <- false
  end

let fram_read t hit =
  let s = t.by_source.(t.cur_source) in
  if hit then begin
    t.cur.fram_read_hits <- t.cur.fram_read_hits + 1;
    s.fram_read_hits <- s.fram_read_hits + 1
  end
  else begin
    t.cur.fram_read_misses <- t.cur.fram_read_misses + 1;
    s.fram_read_misses <- s.fram_read_misses + 1
  end

let sram_access t =
  let s = t.by_source.(t.cur_source) in
  t.cur.sram_accesses <- t.cur.sram_accesses + 1;
  s.sram_accesses <- s.sram_accesses + 1

let sink t =
  {
    Msp430.Trace.instr =
      (fun source pc ->
        t.cur_source <- source;
        set_context t (Symtab.name_of t.symtab pc);
        t.cur.instrs <- t.cur.instrs + 1;
        t.by_source.(source).instrs <- t.by_source.(source).instrs + 1);
    cycles =
      (fun unstalled stall ->
        t.cur.unstalled <- t.cur.unstalled + unstalled;
        t.cur.stall <- t.cur.stall + stall;
        let s = t.by_source.(t.cur_source) in
        s.unstalled <- s.unstalled + unstalled;
        s.stall <- s.stall + stall;
        t.cur_folded := !(t.cur_folded) + unstalled + stall);
    fram_read = (fun hit _addr -> fram_read t hit);
    fram_ifetch = (fun hit _addr _home -> fram_read t hit);
    fram_write =
      (fun _addr ->
        let s = t.by_source.(t.cur_source) in
        t.cur.fram_writes <- t.cur.fram_writes + 1;
        s.fram_writes <- s.fram_writes + 1);
    sram_read = (fun _addr -> sram_access t);
    sram_ifetch = (fun _addr _home -> sram_access t);
    sram_write = (fun _addr -> sram_access t);
    periph = (fun _addr -> ());
    call =
      (fun target _unit ->
        (let name = Symtab.name_of t.symtab target in
         match Hashtbl.find_opt t.name_calls name with
         | Some r -> incr r
         | None -> Hashtbl.replace t.name_calls name (ref 1));
        if t.depth < t.max_depth then begin
          t.stack <- t.cur_name :: t.stack;
          t.depth <- t.depth + 1;
          t.stack_key <-
            (if t.stack_key = "" then t.cur_name
             else t.stack_key ^ ";" ^ t.cur_name);
          (* cur_folded stays: the call instruction's remaining charges
             still belong to the caller at its pre-call stack. The
             callee's first instr refreshes it. *)
          t.folded_dirty <- true
        end
        else t.overflow <- t.overflow + 1);
    return =
      (fun () ->
        (* A return first unwinds a frame the depth cap did not push. *)
        if t.overflow > 0 then t.overflow <- t.overflow - 1
        else
          match t.stack with
          | [] -> () (* a return below the observation start; ignore *)
          | _ :: rest ->
              t.stack <- rest;
              t.depth <- t.depth - 1;
              t.stack_key <- String.concat ";" (List.rev rest);
              t.folded_dirty <- true);
    runtime =
      (function
      | Msp430.Trace.Miss_exit { fid; _ } -> (
          match Hashtbl.find_opt t.fid_misses fid with
          | Some r -> incr r
          | None -> Hashtbl.replace t.fid_misses fid (ref 1))
      | _ -> ());
    templated = None;
  }

(* --- Reports ----------------------------------------------------------- *)

let totals t =
  let acc = fresh_counters () in
  Hashtbl.iter (fun _ c -> add_into acc c) t.funcs;
  acc

let cycles_of c = c.unstalled + c.stall

type row = { name : string; c : counters; energy_nj : float }

let energy_of params (c : counters) =
  (Msp430.Energy.evaluate_counts params ~cycles:(cycles_of c)
     ~fram_read_misses:c.fram_read_misses ~fram_read_hits:c.fram_read_hits
     ~fram_writes:c.fram_writes ~sram_accesses:c.sram_accesses)
    .Msp430.Energy.energy_nj

let rows ~params t =
  Hashtbl.fold
    (fun name c acc ->
      if c.instrs = 0 && cycles_of c = 0 then acc
      else { name; c; energy_nj = energy_of params c } :: acc)
    t.funcs []
  |> List.sort (fun a b ->
         match compare (cycles_of b.c) (cycles_of a.c) with
         | 0 -> compare a.name b.name
         | n -> n)

let source_share t source =
  let idx = Msp430.Trace.source_index source in
  let total =
    Array.fold_left (fun acc c -> acc + cycles_of c) 0 t.by_source
  in
  if total = 0 then 0.0
  else float_of_int (cycles_of t.by_source.(idx)) /. float_of_int total

let render ?(top = 0) ~params t =
  let rows = rows ~params t in
  let rows = if top > 0 then List.filteri (fun i _ -> i < top) rows else rows in
  let tot = totals t in
  let total_cycles = max 1 (cycles_of tot) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-24s %10s %6s %10s %9s %9s %8s %10s\n" "function"
       "cycles" "cyc%" "instrs" "fram-rd" "fram-wr" "sram" "energy-nJ");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-24s %10d %5.1f%% %10d %9d %9d %8d %10.1f\n" r.name
           (cycles_of r.c)
           (100.0 *. float_of_int (cycles_of r.c) /. float_of_int total_cycles)
           r.c.instrs
           (r.c.fram_read_hits + r.c.fram_read_misses)
           r.c.fram_writes r.c.sram_accesses r.energy_nj))
    rows;
  Buffer.add_string buf
    (Printf.sprintf "%-24s %10d %5.1f%% %10d %9d %9d %8d %10.1f\n" "TOTAL"
       (cycles_of tot) 100.0 tot.instrs
       (tot.fram_read_hits + tot.fram_read_misses)
       tot.fram_writes tot.sram_accesses (energy_of params tot));
  Buffer.contents buf

let folded_lines t =
  Hashtbl.fold
    (fun key slot acc ->
      if !slot = 0 then acc else Printf.sprintf "%s %d" key !slot :: acc)
    t.folded []
  |> List.sort compare

let folded_total t =
  Hashtbl.fold (fun _ slot acc -> acc + !slot) t.folded 0

let calls_to t name =
  match Hashtbl.find_opt t.name_calls name with Some r -> !r | None -> 0

let miss_exits_of t fid =
  match Hashtbl.find_opt t.fid_misses fid with Some r -> !r | None -> 0

let counters_of t name = Hashtbl.find_opt t.funcs name
