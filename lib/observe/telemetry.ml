(* Host-side experiment telemetry. See telemetry.mli for the contract.

   Record kinds on the wire (one JSON object per line, keyed by "t"):
     {"t":"manifest","ts":N, ...caller fields...}
     {"t":"b","ts":N,"id":I,"cat":C,"name":S,"args":{..}}   span begin
     {"t":"e","ts":N,"id":I,"args":{..}}                    span end
     {"t":"c","ts":N,"name":S,"value":V}                    counter
     {"t":"w","ts":N,"ev":E,"pid":P,"task":T,"args":{..}}   worker

   Timestamps are monotonic-clock nanoseconds (CLOCK_MONOTONIC via
   bechamel's Monotonic_clock, the same clock the sweeps use for host
   timing). Every record is flushed as written: a sink never holds
   buffered bytes, so a fork cannot duplicate output and a killed run
   loses at most one torn trailing line — which the reader drops. *)

type sink = {
  oc : out_channel;
  owner_pid : int;
  mutable next_id : int;
  mutable armed : bool;
}

let current : sink option ref = ref None

let active () =
  match !current with
  | None -> false
  | Some s -> s.armed && Unix.getpid () = s.owner_pid

let enable path =
  match !current with
  | Some _ -> Error "telemetry: a ledger sink is already enabled"
  | None -> (
      match open_out path with
      | oc ->
          current :=
            Some { oc; owner_pid = Unix.getpid (); next_id = 0; armed = true };
          Ok ()
      | exception Sys_error e -> Error ("telemetry: " ^ e))

let disable () =
  match !current with
  | None -> ()
  | Some s ->
      current := None;
      if Unix.getpid () = s.owner_pid then (
        try close_out s.oc with Sys_error _ -> ())

let disarm () =
  match !current with
  | None -> ()
  | Some s ->
      s.armed <- false;
      current := None

(* --- Emission ---------------------------------------------------------- *)

let emit s fields =
  output_string s.oc (Json.to_string (Json.Obj fields));
  output_char s.oc '\n';
  flush s.oc

let with_sink f = match !current with Some s when active () -> f s | _ -> ()

let args_field = function [] -> [] | args -> [ ("args", Json.Obj args) ]

let ts_field () = ("ts", Json.Int (Int64.to_int (Monotonic_clock.now ())))

let manifest fields =
  with_sink (fun s ->
      emit s
        ([ ("t", Json.String "manifest"); ts_field () ]
        @ [
            ("pid", Json.Int (Unix.getpid ()));
            ( "argv",
              Json.List
                (Array.to_list
                   (Array.map (fun a -> Json.String a) Sys.argv)) );
          ]
        @ fields))

let span_begin ?(args = []) ~cat name =
  match !current with
  | Some s when active () ->
      s.next_id <- s.next_id + 1;
      let id = s.next_id in
      emit s
        ([
           ("t", Json.String "b");
           ts_field ();
           ("id", Json.Int id);
           ("cat", Json.String cat);
           ("name", Json.String name);
         ]
        @ args_field args);
      id
  | _ -> 0

let span_end ?(args = []) id =
  if id > 0 then
    with_sink (fun s ->
        emit s
          ([ ("t", Json.String "e"); ts_field (); ("id", Json.Int id) ]
          @ args_field args))

let with_span ?args ~cat name f =
  if not (active ()) then f ()
  else begin
    let id = span_begin ?args ~cat name in
    Fun.protect ~finally:(fun () -> span_end id) f
  end

let counter name value =
  with_sink (fun s ->
      emit s
        [
          ("t", Json.String "c");
          ts_field ();
          ("name", Json.String name);
          ("value", Json.Int value);
        ])

let worker ?(task = -1) ?(args = []) ev ~pid =
  with_sink (fun s ->
      emit s
        ([
           ("t", Json.String "w");
           ts_field ();
           ("ev", Json.String ev);
           ("pid", Json.Int pid);
         ]
        @ (if task >= 0 then [ ("task", Json.Int task) ] else [])
        @ args_field args))

(* --- Ledger records ---------------------------------------------------- *)

type record =
  | Manifest of { ts : int64; fields : (string * Json.t) list }
  | Span_begin of {
      ts : int64;
      id : int;
      cat : string;
      name : string;
      args : (string * Json.t) list;
    }
  | Span_end of { ts : int64; id : int; args : (string * Json.t) list }
  | Counter of { ts : int64; name : string; value : int }
  | Worker of {
      ts : int64;
      ev : string;
      pid : int;
      task : int;
      args : (string * Json.t) list;
    }

let record_ts = function
  | Manifest { ts; _ }
  | Span_begin { ts; _ }
  | Span_end { ts; _ }
  | Counter { ts; _ }
  | Worker { ts; _ } ->
      ts

let record_to_line r =
  let ts v = ("ts", Json.Int (Int64.to_int v)) in
  let fields =
    match r with
    | Manifest { ts = v; fields } ->
        (* Fields nest under their own key: splicing them at top level
           would let a field named "t" or "ts" collide with the record
           tags (the round-trip property found exactly that). *)
        [ ("t", Json.String "manifest"); ts v ] @ args_field fields
    | Span_begin { ts = v; id; cat; name; args } ->
        [
          ("t", Json.String "b");
          ts v;
          ("id", Json.Int id);
          ("cat", Json.String cat);
          ("name", Json.String name);
        ]
        @ args_field args
    | Span_end { ts = v; id; args } ->
        [ ("t", Json.String "e"); ts v; ("id", Json.Int id) ] @ args_field args
    | Counter { ts = v; name; value } ->
        [
          ("t", Json.String "c");
          ts v;
          ("name", Json.String name);
          ("value", Json.Int value);
        ]
    | Worker { ts = v; ev; pid; task; args } ->
        [
          ("t", Json.String "w");
          ts v;
          ("ev", Json.String ev);
          ("pid", Json.Int pid);
        ]
        @ (if task >= 0 then [ ("task", Json.Int task) ] else [])
        @ args_field args
  in
  Json.to_string (Json.Obj fields)

let record_of_line line =
  match Json.parse line with
  | Error e -> Error e
  | Ok json -> (
      let str k = Option.bind (Json.member k json) Json.to_str in
      let int k = Option.bind (Json.member k json) Json.to_int in
      let args =
        match Json.member "args" json with
        | Some (Json.Obj kvs) -> kvs
        | _ -> []
      in
      let require what = function
        | Some v -> Ok v
        | None -> Error ("telemetry record missing " ^ what)
      in
      let ( let* ) r f = Result.bind r f in
      let* ts = require "ts" (int "ts") in
      let ts = Int64.of_int ts in
      match str "t" with
      | Some "manifest" ->
          (* Current lines nest fields under "args"; ledgers written
             before that change spliced them at top level — accept
             both so old artifacts stay readable. *)
          let fields =
            match args with
            | _ :: _ -> args
            | [] -> (
                match json with
                | Json.Obj kvs ->
                    List.filter (fun (k, _) -> k <> "t" && k <> "ts") kvs
                | _ -> [])
          in
          Ok (Manifest { ts; fields })
      | Some "b" ->
          let* id = require "id" (int "id") in
          let* cat = require "cat" (str "cat") in
          let* name = require "name" (str "name") in
          Ok (Span_begin { ts; id; cat; name; args })
      | Some "e" ->
          let* id = require "id" (int "id") in
          Ok (Span_end { ts; id; args })
      | Some "c" ->
          let* name = require "name" (str "name") in
          let* value = require "value" (int "value") in
          Ok (Counter { ts; name; value })
      | Some "w" ->
          let* ev = require "ev" (str "ev") in
          let* pid = require "pid" (int "pid") in
          let task = match int "task" with Some t -> t | None -> -1 in
          Ok (Worker { ts; ev; pid; task; args })
      | Some t -> Error ("unknown telemetry record type " ^ t)
      | None -> Error "telemetry record missing t")

let read_file path =
  match open_in path with
  | exception Sys_error e -> Error ("telemetry: " ^ e)
  | ic ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      let lines = List.rev !lines in
      let n = List.length lines in
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest when String.trim line = "" -> go (i + 1) acc rest
        | line :: rest -> (
            match record_of_line line with
            | Ok r -> go (i + 1) (r :: acc) rest
            | Error _ when i = n - 1 ->
                (* torn trailing line: the writer was killed mid-append *)
                Ok (List.rev acc)
            | Error e ->
                Error (Printf.sprintf "%s:%d: %s" path (i + 1) e))
      in
      go 0 [] lines

(* --- Chrome timeline exporter ------------------------------------------ *)

let host_tid = 0

let rebase records =
  let t0 =
    List.fold_left
      (fun a r -> min a (record_ts r))
      Int64.max_int records
  in
  let t0 = if t0 = Int64.max_int then 0L else t0 in
  fun ts -> Int64.to_int (Int64.div (Int64.sub ts t0) 1000L)

(* microseconds since the first record *)

let chrome records =
  let us = rebase records in
  let pids =
    List.sort_uniq compare
      (List.filter_map
         (function Worker { pid; _ } -> Some pid | _ -> None)
         records)
  in
  let meta =
    Chrome.thread_name ~tid:host_tid "host"
    :: List.map
         (fun pid ->
           Chrome.thread_name ~tid:pid (Printf.sprintf "worker %d" pid))
         pids
  in
  (* Busy intervals: a dispatch opens a B on the worker's track, the
     next result/died for that pid closes it. Track what is
     open so a lifecycle event without an open dispatch (or a torn
     ledger) never emits an unbalanced E. *)
  let open_task : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let spans =
    List.concat_map
      (fun r ->
        match r with
        | Manifest _ -> []
        | Span_begin { ts; cat; name; args; _ } ->
            [
              Chrome.dur_begin ~ts:(us ts) ~tid:host_tid name
                (("cat", Json.String cat) :: args);
            ]
        | Span_end { ts; args; _ } ->
            [ Chrome.dur_end ~ts:(us ts) ~tid:host_tid args ]
        | Counter { ts; name; value } ->
            [ Chrome.counter_event ~ts:(us ts) ~tid:host_tid name value ]
        | Worker { ts; ev = "dispatch"; pid; task; _ } ->
            Hashtbl.replace open_task pid task;
            [
              Chrome.dur_begin ~ts:(us ts) ~tid:pid
                (Printf.sprintf "task %d" task)
                [];
            ]
        | Worker { ts; ev = ("result" | "died") as ev; pid; _ }
          when Hashtbl.mem open_task pid ->
            Hashtbl.remove open_task pid;
            let close =
              Chrome.dur_end ~ts:(us ts) ~tid:pid
                (if ev = "result" then [] else [ ("outcome", Json.String ev) ])
            in
            if ev = "result" then [ close ]
            else [ close; Chrome.instant ~ts:(us ts) ~tid:pid ev [] ]
        | Worker { ts; ev; pid; task; args } ->
            let tid = if pid = 0 then host_tid else pid in
            [
              Chrome.instant ~ts:(us ts) ~tid ev
                ((if task >= 0 then [ ("task", Json.Int task) ] else [])
                @ args);
            ])
      records
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (meta @ spans));
         ("displayTimeUnit", Json.String "ms");
         ( "otherData",
           Json.Obj [ ("timestampUnit", Json.String "microseconds") ] );
       ])

(* --- Summary table ----------------------------------------------------- *)

type wstat = {
  mutable spawns : int;
  mutable tasks : int;
  mutable deaths : int;
  mutable busy_ns : int64;
  mutable dispatched_at : int64 option;
}

let seconds ns = Int64.to_float ns /. 1e9

let summary records =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let t_first = ref Int64.max_int and t_last = ref Int64.min_int in
  List.iter
    (fun r ->
      let ts = record_ts r in
      if ts < !t_first then t_first := ts;
      if ts > !t_last then t_last := ts)
    records;
  let wall =
    if !t_last >= !t_first then seconds (Int64.sub !t_last !t_first) else 0.0
  in
  add "ledger       : %d records, %.3f s span\n" (List.length records) wall;
  List.iter
    (function
      | Manifest { fields; _ } ->
          let show (k, v) =
            match v with
            | Json.String s -> Some (Printf.sprintf "%s=%s" k s)
            | Json.Int n -> Some (Printf.sprintf "%s=%d" k n)
            | _ -> None
          in
          add "manifest     : %s\n"
            (String.concat " " (List.filter_map show fields))
      | _ -> ())
    records;
  (* per-worker busy accounting from the parent's dispatch/result
     frames; pid 0 is the host-side pseudo worker (requeue records) *)
  let workers : (int, wstat) Hashtbl.t = Hashtbl.create 8 in
  let wstat pid =
    match Hashtbl.find_opt workers pid with
    | Some w -> w
    | None ->
        let w =
          {
            spawns = 0;
            tasks = 0;
            deaths = 0;
            busy_ns = 0L;
            dispatched_at = None;
          }
        in
        Hashtbl.replace workers pid w;
        w
  in
  let requeues = ref 0 in
  let pool_first = ref Int64.max_int and pool_last = ref Int64.min_int in
  List.iter
    (function
      | Worker { ts; ev; pid; _ } -> (
          if ev = "dispatch" || ev = "result" then begin
            if ts < !pool_first then pool_first := ts;
            if ts > !pool_last then pool_last := ts
          end;
          match ev with
          | "spawn" -> (wstat pid).spawns <- (wstat pid).spawns + 1
          | "dispatch" -> (wstat pid).dispatched_at <- Some ts
          | "result" | "died" ->
              let w = wstat pid in
              (match w.dispatched_at with
              | Some t0 ->
                  w.busy_ns <- Int64.add w.busy_ns (Int64.sub ts t0);
                  w.dispatched_at <- None
              | None -> ());
              if ev = "result" then w.tasks <- w.tasks + 1
              else w.deaths <- w.deaths + 1
          | "requeue" -> incr requeues
          | _ -> ())
      | _ -> ())
    records;
  let pool_wall =
    if !pool_last >= !pool_first then
      seconds (Int64.sub !pool_last !pool_first)
    else 0.0
  in
  let pids =
    List.sort compare
      (Hashtbl.fold (fun pid _ acc -> pid :: acc) workers [])
  in
  let total_tasks = ref 0 and total_deaths = ref 0 in
  List.iter
    (fun pid ->
      let w = Hashtbl.find workers pid in
      total_tasks := !total_tasks + w.tasks;
      total_deaths := !total_deaths + w.deaths)
    pids;
  if pids <> [] then begin
    add "workers      : %d, %d tasks, %d died, %d re-queued\n"
      (List.length pids) !total_tasks !total_deaths !requeues;
    List.iter
      (fun pid ->
        let w = Hashtbl.find workers pid in
        let busy = seconds w.busy_ns in
        add "  pid %-7d: %3d tasks, busy %7.3f s (%5.1f%%)%s\n" pid w.tasks
          busy
          (if pool_wall > 0.0 then 100.0 *. busy /. pool_wall else 0.0)
          (if w.deaths > 0 then Printf.sprintf ", died x%d" w.deaths else ""))
      pids;
    if pool_wall > 0.0 && !total_tasks > 0 then
      add "throughput   : %d tasks in %.3f s = %.1f tasks/s\n" !total_tasks
        pool_wall
        (float_of_int !total_tasks /. pool_wall)
  end;
  (* span aggregates by (cat, name), matched begin->end by id *)
  let begins : (int, string * string * int64) Hashtbl.t = Hashtbl.create 64 in
  let agg : (string * string, int ref * int64 ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (function
      | Span_begin { ts; id; cat; name; _ } ->
          Hashtbl.replace begins id (cat, name, ts)
      | Span_end { ts; id; _ } -> (
          match Hashtbl.find_opt begins id with
          | None -> ()
          | Some (cat, name, t0) ->
              Hashtbl.remove begins id;
              let count, total =
                match Hashtbl.find_opt agg (cat, name) with
                | Some a -> a
                | None ->
                    let a = (ref 0, ref 0L) in
                    Hashtbl.replace agg (cat, name) a;
                    a
              in
              incr count;
              total := Int64.add !total (Int64.sub ts t0))
      | _ -> ())
    records;
  let spans =
    List.sort compare
      (Hashtbl.fold (fun k (c, t) acc -> (k, !c, !t) :: acc) agg [])
  in
  List.iter
    (fun ((cat, name), count, total_ns) ->
      let total = seconds total_ns in
      add "span         : %-28s x%-4d total %8.3f s, mean %8.4f s\n"
        (cat ^ "." ^ name) count total
        (total /. float_of_int count))
    spans;
  (* counters: final and max values *)
  let counters : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (function
      | Counter { name; value; _ } ->
          let max_v =
            match Hashtbl.find_opt counters name with
            | Some (_, m) -> max m value
            | None -> value
          in
          Hashtbl.replace counters name (value, max_v)
      | _ -> ())
    records;
  let counters =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters [])
  in
  List.iter
    (fun (name, (last, max_v)) ->
      add "counter      : %-28s last %d, max %d\n" name last max_v)
    counters;
  Buffer.contents b

(* --- CSV --------------------------------------------------------------- *)

let csv records =
  let b = Buffer.create 1024 in
  Buffer.add_string b "kind,name,cat,pid,task,start_ns,dur_ns,value\n";
  let row kind name cat pid task start dur value =
    Buffer.add_string b
      (Printf.sprintf "%s,%s,%s,%s,%s,%s,%s,%s\n" kind name cat pid task start
         dur value)
  in
  let i64 v = Int64.to_string v in
  let begins : (int, string * string * int64) Hashtbl.t = Hashtbl.create 64 in
  let dispatched : (int, int * int64) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun r ->
      match r with
      | Manifest _ -> ()
      | Span_begin { ts; id; cat; name; _ } ->
          Hashtbl.replace begins id (cat, name, ts)
      | Span_end { ts; id; _ } -> (
          match Hashtbl.find_opt begins id with
          | None -> ()
          | Some (cat, name, t0) ->
              Hashtbl.remove begins id;
              row "span" name cat "" "" (i64 t0)
                (i64 (Int64.sub ts t0))
                "")
      | Counter { ts; name; value } ->
          row "counter" name "" "" "" (i64 ts) "" (string_of_int value)
      | Worker { ts; ev; pid; task; _ } -> (
          match ev with
          | "dispatch" -> Hashtbl.replace dispatched pid (task, ts)
          | "result" | "died" -> (
              (match Hashtbl.find_opt dispatched pid with
              | Some (task, t0) ->
                  Hashtbl.remove dispatched pid;
                  row "task"
                    (Printf.sprintf "task-%d" task)
                    "worker" (string_of_int pid) (string_of_int task)
                    (i64 t0)
                    (i64 (Int64.sub ts t0))
                    ""
              | None -> ());
              if ev <> "result" then
                row "worker" ev "" (string_of_int pid)
                  (if task >= 0 then string_of_int task else "")
                  (i64 ts) "" "")
          | _ ->
              row "worker" ev "" (string_of_int pid)
                (if task >= 0 then string_of_int task else "")
                (i64 ts) "" ""))
    records;
  Buffer.contents b
