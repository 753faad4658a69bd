(** Bounded cycle-stamped event recorder: a ring of the most recent
    high-level events (calls, returns, runtime events), each stamped
    with {!Msp430.Trace.total_cycles} at emission. It is the one
    consumer that stores {!Msp430.Trace.event} values. Input for the
    Chrome trace exporter ({!Chrome}). *)

type stamped = { at : int; ev : Msp430.Trace.event }

type t

val create : capacity:int -> Msp430.Trace.t -> t
(** A ring of the [capacity] most recent events. *)

val sink : t -> Msp430.Trace.sink
(** The ring's input: an event value is built (by
    {!Msp430.Trace.event_sink}) only for the callbacks the ring keeps. *)

val to_list : t -> stamped list
(** Retained events, oldest first. *)

val recorded : t -> int
(** Total matching events seen (including any that fell off the ring). *)

val dropped : t -> int
