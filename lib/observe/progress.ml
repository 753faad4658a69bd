(* Host-side progress reporting for long-running campaigns and sweeps.
   A sink is just a callback; the library stays silent unless the
   caller plugs one in, and the events carry only aggregate counters so
   rendering them cannot perturb the simulated results.

   Two renderers:
   - [plain]     non-TTY/CI: no ANSI escapes, high-frequency events
                 rate-limited to ~1 line/s, per-worker churn dropped
   - [dashboard] TTY: multi-line live display redrawn in place
   [auto] picks dashboard or plain via [Unix.isatty]. *)

type worker_state = W_spawned | W_busy | W_idle | W_died

type event =
  | Campaign_started of { cells : int; trials : int }
  | Golden_ready of { cell : string; cycles : int }
  | Shard_done of {
      cell : string;
      shard : int;
      shards : int;
      trials_done : int;
      trials : int;
      cached : bool;
    }
  | Cell_done of {
      cell : string;
      trials : int;
      consistent : int;
      stopped_early : bool;
    }
  | Pool_event of string
  | Worker_state of { pid : int; state : worker_state; task : int }
  | Units_done of { label : string; finished : int; total : int }
  | Campaign_done of { cells : int; trials : int; seconds : float }

type sink = event -> unit

let null (_ : event) = ()

let state_name = function
  | W_spawned -> "spawned"
  | W_busy -> "busy"
  | W_idle -> "idle"
  | W_died -> "died"

let describe = function
  | Campaign_started { cells; trials } ->
      Printf.sprintf "campaign: %d cells, %d trials/cell" cells trials
  | Golden_ready { cell; cycles } ->
      Printf.sprintf "golden %-40s %d cycles" cell cycles
  | Shard_done { cell; shard; shards; trials_done; trials; cached } ->
      Printf.sprintf "shard  %-40s %d/%d (%d/%d trials)%s" cell (shard + 1)
        shards trials_done trials
        (if cached then " [cached]" else "")
  | Cell_done { cell; trials; consistent; stopped_early } ->
      Printf.sprintf "cell   %-40s %d/%d consistent%s" cell consistent trials
        (if stopped_early then " [early stop]" else "")
  | Pool_event s -> Printf.sprintf "pool   %s" s
  | Worker_state { pid; state; task } ->
      Printf.sprintf "worker %d %s%s" pid (state_name state)
        (if task >= 0 then Printf.sprintf " (task %d)" task else "")
  | Units_done { label; finished; total } ->
      Printf.sprintf "%-6s %d/%d" label finished total
  | Campaign_done { cells; trials; seconds } ->
      Printf.sprintf "campaign done: %d cells, %d trials, %.1fs" cells trials
        seconds

(* --- Plain (non-TTY) --------------------------------------------------- *)

let plain oc : sink =
  let last = ref neg_infinity in
  let line ev =
    output_string oc (describe ev);
    output_char oc '\n';
    flush oc
  in
  fun ev ->
    match ev with
    | Worker_state _ -> ()
    | Shard_done _ | Units_done _ ->
        let now = Unix.gettimeofday () in
        if now -. !last >= 1.0 then begin
          last := now;
          line ev
        end
    | Campaign_started _ | Golden_ready _ | Cell_done _ | Pool_event _
    | Campaign_done _ ->
        line ev

(* --- Dashboard (TTY) --------------------------------------------------- *)

type dash = {
  oc : out_channel;
  mutable drawn : int;  (* lines currently on screen *)
  mutable last_draw : float;
  mutable started : float;
  mutable cells : int;
  mutable trials_per_cell : int;
  mutable cells_done : int;
  mutable trials_done : int;
  mutable cell : string;  (* current cell's latest shard line *)
  mutable sweep : string;  (* latest Units_done line *)
  mutable last_event : string;
  workers : (int, worker_state) Hashtbl.t;
}

let human_eta s =
  if s < 60.0 then Printf.sprintf "%.0fs" s
  else if s < 3600.0 then Printf.sprintf "%.0fm%02.0fs" (s /. 60.0) (mod_float s 60.0)
  else Printf.sprintf "%.1fh" (s /. 3600.0)

let dash_lines d =
  let lines = ref [] in
  let add s = lines := s :: !lines in
  (if d.cells > 0 then begin
     let total = d.cells * d.trials_per_cell in
     let elapsed = Unix.gettimeofday () -. d.started in
     let rate =
       if elapsed > 0.0 then float_of_int d.trials_done /. elapsed else 0.0
     in
     let eta =
       if rate > 0.0 && d.trials_done < total then
         " eta " ^ human_eta (float_of_int (total - d.trials_done) /. rate)
       else ""
     in
     add
       (Printf.sprintf "campaign %d/%d cells, %d/%d trials (%.1f trials/s%s)"
          d.cells_done d.cells d.trials_done total rate eta)
   end);
  if Hashtbl.length d.workers > 0 then begin
    let pids =
      List.sort compare
        (Hashtbl.fold (fun pid _ acc -> pid :: acc) d.workers [])
    in
    let busy =
      List.length
        (List.filter (fun p -> Hashtbl.find d.workers p = W_busy) pids)
    in
    let cell pid =
      let c =
        match Hashtbl.find d.workers pid with
        | W_busy -> '*'
        | W_idle | W_spawned -> '.'
        | W_died -> 'x'
      in
      Printf.sprintf "%d%c" pid c
    in
    add
      (Printf.sprintf "workers  %d busy / %d  [%s]" busy (List.length pids)
         (String.concat " " (List.map cell pids)))
  end;
  if d.cell <> "" then add ("cell     " ^ d.cell);
  if d.sweep <> "" then add ("sweep    " ^ d.sweep);
  if d.last_event <> "" then add ("last     " ^ d.last_event);
  List.rev !lines

let dash_draw d ~force =
  let now = Unix.gettimeofday () in
  if force || now -. d.last_draw >= 0.1 then begin
    d.last_draw <- now;
    let b = Buffer.create 256 in
    if d.drawn > 0 then Buffer.add_string b (Printf.sprintf "\x1b[%dA" d.drawn);
    let lines = dash_lines d in
    List.iter
      (fun l ->
        Buffer.add_string b "\r\x1b[2K";
        Buffer.add_string b l;
        Buffer.add_char b '\n')
      lines;
    (* if the display shrank, blank the leftover lines then hop back *)
    let extra = d.drawn - List.length lines in
    if extra > 0 then begin
      for _ = 1 to extra do
        Buffer.add_string b "\r\x1b[2K\n"
      done;
      Buffer.add_string b (Printf.sprintf "\x1b[%dA" extra)
    end;
    d.drawn <- List.length lines;
    output_string d.oc (Buffer.contents b);
    flush d.oc
  end

let dashboard oc : sink =
  let d =
    {
      oc;
      drawn = 0;
      last_draw = neg_infinity;
      started = Unix.gettimeofday ();
      cells = 0;
      trials_per_cell = 0;
      cells_done = 0;
      trials_done = 0;
      cell = "";
      sweep = "";
      last_event = "";
      workers = Hashtbl.create 8;
    }
  in
  fun ev ->
    let force =
      match ev with
      | Campaign_started { cells; trials } ->
          d.started <- Unix.gettimeofday ();
          d.cells <- cells;
          d.trials_per_cell <- trials;
          d.cells_done <- 0;
          d.trials_done <- 0;
          true
      | Golden_ready { cell; cycles } ->
          d.last_event <-
            Printf.sprintf "golden %s (%d cycles)" cell cycles;
          false
      | Shard_done { cell; shard; shards; trials_done; trials; cached } ->
          d.cell <-
            Printf.sprintf "%s shard %d/%d (%d/%d trials)%s" cell (shard + 1)
              shards trials_done trials
              (if cached then " [cached]" else "");
          false
      | Cell_done { cell; trials; consistent; stopped_early } ->
          d.cells_done <- d.cells_done + 1;
          d.trials_done <- d.trials_done + trials;
          d.cell <- "";
          d.last_event <-
            Printf.sprintf "%s: %d/%d consistent%s" cell consistent trials
              (if stopped_early then " [early stop]" else "");
          false
      | Pool_event s ->
          d.last_event <- s;
          false
      | Worker_state { pid; state; _ } ->
          if state = W_died then
            d.last_event <- Printf.sprintf "worker %d died" pid;
          Hashtbl.replace d.workers pid state;
          false
      | Units_done { label; finished; total } ->
          d.sweep <- Printf.sprintf "%s %d/%d" label finished total;
          finished = total
      | Campaign_done { cells; trials; seconds } ->
          d.last_event <-
            Printf.sprintf "done: %d cells, %d trials, %.1fs" cells trials
              seconds;
          true
    in
    dash_draw d ~force

let auto oc : sink =
  if Unix.isatty (Unix.descr_of_out_channel oc) then dashboard oc else plain oc
