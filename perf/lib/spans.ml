(* In-memory span recorder for the traced run.

   Spans are opened only by the benchmark's own code, around each call
   into a library layer; a span's layer is the prefix of its name
   ("replay.load" belongs to "replay"). Nothing is written until the
   run ends, and a disabled recorder reduces [with_span] to its thunk,
   so the untraced run pays one branch per call site.

   Shadow spans time a layer's public entry point called a second time
   on the same input as a multi-layer call (e.g. the compiler alone,
   beside [Toolchain.prepare]), purely to attribute time to that inner
   layer. They are extra work the untraced run never does, so they are
   excluded from self time, coverage and the tracing overhead. *)

type span = {
  id : int;
  parent : int;  (** -1 for a top-level span *)
  name : string;
  shadow : bool;
  start_ns : int64;
  mutable stop_ns : int64;
  mutable work : int;
}

let on = ref false
let workload = ref ""
let recorded : span list ref = ref []
let open_spans : span list ref = ref []
let next_id = ref 0

let enable ~workload:w =
  on := true;
  workload := w;
  recorded := [];
  open_spans := [];
  next_id := 0

let enabled () = !on

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let seconds s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e9

(* [work] converts the call's result into the units the span's
   throughput is counted in (events, refs, instructions, ...). *)
let with_span ?(shadow = false) ?work name f =
  if not !on then f ()
  else begin
    let parent, shadow =
      match !open_spans with
      | p :: _ -> (p.id, shadow || p.shadow)
      | [] -> (-1, shadow)
    in
    let s =
      {
        id = !next_id;
        parent;
        name;
        shadow;
        start_ns = Monotonic_clock.now ();
        stop_ns = 0L;
        work = 0;
      }
    in
    incr next_id;
    open_spans := s :: !open_spans;
    let close () =
      s.stop_ns <- Monotonic_clock.now ();
      open_spans := List.tl !open_spans;
      recorded := s :: !recorded
    in
    match f () with
    | r ->
        close ();
        Option.iter (fun w -> s.work <- w r) work;
        r
    | exception e ->
        close ();
        raise e
  end

let spans () = List.rev !recorded

type total = { count : int; seconds : float; work : int }

let total name =
  List.fold_left
    (fun acc s ->
      if s.name = name then
        { count = acc.count + 1; seconds = acc.seconds +. seconds s; work = acc.work + s.work }
      else acc)
    { count = 0; seconds = 0.; work = 0 }
    !recorded

(* Seconds of top-level shadow work: subtracted from wall time before
   coverage and overhead are computed. *)
let shadow_seconds () =
  List.fold_left
    (fun acc s -> if s.shadow && s.parent < 0 then acc +. seconds s else acc)
    0. !recorded

let child_seconds () =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 && not s.shadow then
        Hashtbl.replace tbl s.parent
          (seconds s +. Option.value ~default:0. (Hashtbl.find_opt tbl s.parent)))
    !recorded;
  tbl

(* Self time per layer: each non-shadow span's duration minus the part
   covered by its non-shadow children, summed by layer. *)
let self_by_layer () =
  let children = child_seconds () in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if not s.shadow then
        let self =
          seconds s -. Option.value ~default:0. (Hashtbl.find_opt children s.id)
        in
        let l = layer_of s.name in
        Hashtbl.replace tbl l
          (self +. Option.value ~default:0. (Hashtbl.find_opt tbl l)))
    !recorded;
  List.sort compare (List.of_seq (Hashtbl.to_seq tbl))

(* Share of the non-shadow wall time spent inside some span. *)
let coverage ~wall =
  let covered =
    List.fold_left
      (fun acc s -> if s.parent < 0 && not s.shadow then acc +. seconds s else acc)
      0. !recorded
  in
  covered /. (wall -. shadow_seconds ())

(* Chrome trace-event document: real spans on track 1, shadow spans on
   track 2, microsecond timestamps from the first span. *)
let chrome () =
  let all = List.sort (fun a b -> compare a.start_ns b.start_ns) (spans ()) in
  let base = match all with s :: _ -> s.start_ns | [] -> 0L in
  let us t = Int64.to_int (Int64.div (Int64.sub t base) 1000L) in
  (* [find_all] returns the latest binding first: add in reverse start
     order so each child list comes back in start order *)
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) (List.rev all);
  let rec emit s acc =
    let tid = if s.shadow then 2 else 1 in
    let args =
      [
        ("workload", Observe.Json.String !workload);
        ("layer", Observe.Json.String (layer_of s.name));
        ("work", Observe.Json.Int s.work);
      ]
    in
    let acc = Observe.Chrome.dur_begin ~ts:(us s.start_ns) ~tid s.name args :: acc in
    let acc =
      List.fold_left (fun acc c -> emit c acc) acc (Hashtbl.find_all children s.id)
    in
    Observe.Chrome.dur_end ~ts:(us s.stop_ns) ~tid [] :: acc
  in
  let events =
    List.fold_left
      (fun acc s -> emit s acc)
      [
        Observe.Chrome.thread_name ~tid:2 (!workload ^ " (shadow)");
        Observe.Chrome.thread_name ~tid:1 !workload;
      ]
      (Hashtbl.find_all children (-1))
  in
  Observe.Json.to_string
    (Observe.Json.Obj
       [
         ("traceEvents", Observe.Json.List (List.rev events));
         ("displayTimeUnit", Observe.Json.String "ms");
       ])
