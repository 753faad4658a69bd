(* Bounded cycle-stamped event recorder.

   Keeps the most recent [capacity] interesting events in a ring,
   each stamped with the trace's total cycle count at emission time.
   Only the high-level narrative is kept (calls, returns, runtime
   events): per-access events would swamp the ring and are already
   summarized by the profiler. *)

type stamped = { at : int; ev : Msp430.Trace.event }

type t = {
  stats : Msp430.Trace.t;
  buf : stamped option array;
  mutable next : int; (* next write position *)
  mutable recorded : int; (* total events recorded (may exceed capacity) *)
}

let create ~capacity stats =
  { stats; buf = Array.make (max 1 capacity) None; next = 0; recorded = 0 }

let push t ev =
  t.buf.(t.next) <- Some { at = Msp430.Trace.total_cycles t.stats; ev };
  t.next <- (t.next + 1) mod Array.length t.buf;
  t.recorded <- t.recorded + 1

(* Events are built by the Trace adapter; the per-instruction and
   per-access callbacks are dropped before any value is built. *)
let sink t =
  {
    (Msp430.Trace.event_sink (push t)) with
    Msp430.Trace.instr = (fun _ _ -> ());
    cycles = (fun _ _ -> ());
    fram_read = (fun _ _ -> ());
    fram_ifetch = (fun _ _ _ -> ());
    fram_write = ignore;
    sram_read = ignore;
    sram_ifetch = (fun _ _ -> ());
    sram_write = ignore;
    periph = ignore;
  }

let recorded t = t.recorded
let dropped t = max 0 (t.recorded - Array.length t.buf)

let to_list t =
  (* oldest-first: ring contents starting at [next] *)
  let n = Array.length t.buf in
  let rec collect i acc =
    if i = n then List.rev acc
    else
      let slot = t.buf.((t.next + i) mod n) in
      collect (i + 1) (match slot with Some s -> s :: acc | None -> acc)
  in
  collect 0 []
