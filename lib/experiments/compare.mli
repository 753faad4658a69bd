(** Exact differ over two bench reports ([bench/baseline.json],
    [bench/report.json]). The simulator is deterministic, so any
    difference is a change in behaviour: [swapram_cli compare] prints
    every one by JSON path and exits nonzero when there is any. *)

type difference = {
  path : string;
      (** e.g. [benchmarks[crc].systems.swapram.cycles]: a list element
          is named by its ["name"] or ["workload"] string when every
          element of its list has a distinct one, by its index
          otherwise *)
  old_value : Observe.Json.t option;  (** [None]: only in the new report *)
  new_value : Observe.Json.t option;  (** [None]: only in the old report *)
  delta : float option;
      (** relative change [(new - old) / old] when both are numbers *)
}

val diff : Observe.Json.t -> Observe.Json.t -> difference list
(** [diff old_report new_report]: every difference, in report order.
    A key, list element or subtree present on one side only, or holding
    a different kind of value on each side, is one difference at its
    root. Lists of uniquely named elements are matched by name, others
    by position after their common prefix and suffix, so one dropped
    element is one difference. [diff a b = []] iff [compare a b = 0]. *)

val render : difference list -> string
(** ["N differences"], then one line per difference. *)
