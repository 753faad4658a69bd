(* Regression verdicts for one (workload, metric) pair between two runs.

   A run summarizes a metric by its median over repetitions plus the
   min and max. The allowed worsening is the registered bound as a
   share of the old median, never less than an absolute floor (so a
   set-up time of a few hundredths of a second is not judged on timer
   jitter). A metric whose min-max spread in either run exceeds the
   allowed worsening cannot be called unchanged: it is unresolved,
   unless every repetition of the new run beats every repetition of the
   old one. *)

type direction = Lower | Higher

let direction_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

type summary = { median : float; min : float; max : float }

type verdict = Better | Unchanged | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Unchanged -> "unchanged"
  | Worse -> "WORSE"
  | Unresolved -> "unresolved"

let allowed ~bound ~floor old = Float.max (bound *. Float.abs old.median) floor

let evaluate ~better ~bound ~floor ~old ~now =
  let allowed = allowed ~bound ~floor old in
  (* positive = worse, in the metric's own direction *)
  let worse_by =
    match better with
    | Lower -> now.median -. old.median
    | Higher -> old.median -. now.median
  in
  let all_better =
    match better with
    | Lower -> now.max < old.min
    | Higher -> now.min > old.max
  in
  let spread s = s.max -. s.min in
  if worse_by > allowed then Worse
  else if spread old > allowed || spread now > allowed then
    if all_better then Better else Unresolved
  else if -.worse_by > allowed then Better
  else Unchanged
