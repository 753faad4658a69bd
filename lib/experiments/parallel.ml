(* Fork-based worker pool. See parallel.mli for the contract.

   Design notes:

   - Workers are forked from the current process, so every task runs
     the same loaded code; closures and results marshal across the
     pipe with [Marshal.Closures] (code pointers are valid in both
     directions because parent and children are the same binary).

   - The parent keeps exactly one outstanding task per worker and
     reads a worker's entire result frame before touching another
     channel. A result frame is [output_binary_int index] followed by
     one marshalled value; since a worker only produces a frame in
     response to a task, a channel never holds more than one frame, so
     mixing [Unix.select] on the raw descriptors with buffered
     [in_channel] reads is safe.

   - Dynamic dispatch (next pending task to the first free worker)
     load-balances uneven cells; determinism is preserved by indexing
     results, not by scheduling.

   - Self-healing (when [retries] > 0): a worker that dies is
     disposed of — both pipe ends closed, SIGKILL if still alive,
     waitpid so no zombie accumulates — and its task goes to the back
     of the queue, up to [retries] re-executions, against a freshly
     spawned worker. A task that *raises* is different: the failure is
     deterministic (same binary, same input), so it surfaces as
     [Worker_failed] immediately. *)

let ncores () =
  try
    let ic = open_in "/proc/cpuinfo" in
    let n = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.length line >= 9 && String.sub line 0 9 = "processor" then
           incr n
       done
     with End_of_file -> ());
    close_in ic;
    max 1 !n
  with Sys_error _ -> 1

exception Worker_failed of string

type event =
  | Spawned of { pid : int }
  | Dispatched of { pid : int; task : int }
  | Completed of { pid : int; task : int }
  | Died of { pid : int; task : int; attempt : int }

let worker_progress (progress : Observe.Progress.sink) ev =
  let state pid state task =
    progress (Observe.Progress.Worker_state { pid; state; task })
  in
  match ev with
  | Spawned { pid } -> state pid Observe.Progress.W_spawned (-1)
  | Dispatched { pid; task } -> state pid Observe.Progress.W_busy task
  | Completed { pid; task } -> state pid Observe.Progress.W_idle task
  | Died { pid; task; _ } -> state pid Observe.Progress.W_died task

let units_progress ~label ~total (progress : Observe.Progress.sink) =
  let finished = ref 0 in
  function
  | Completed _ ->
      incr finished;
      progress
        (Observe.Progress.Units_done { label; finished = !finished; total })
  | _ -> ()

type 'b reply = Ok_r of 'b | Error_r of string

type worker = {
  pid : int;
  task_out : out_channel; (* parent -> child: task indices *)
  result_fd : Unix.file_descr;
  result_in : in_channel; (* child -> parent: index + marshalled reply *)
  mutable task : int; (* index in flight, -1 when idle *)
}

(* True in forked workers: tasks that deliberately kill their own
   process (chaos tests) must only do so inside a real worker, never
   in the serial in-process degradation. *)
let in_worker_flag = ref false
let in_worker () = !in_worker_flag

(* Child side: serve tasks until the parent sends -1. All exits go
   through [Unix._exit] so the child never runs the parent's at_exit
   handlers or flushes duplicated buffers. *)
let child_loop tasks f task_r result_w =
  let ic = Unix.in_channel_of_descr task_r in
  let oc = Unix.out_channel_of_descr result_w in
  (try
     let rec serve () =
       let idx = input_binary_int ic in
       if idx >= 0 then begin
         let reply =
           try Ok_r (f tasks.(idx))
           with e -> Error_r (Printexc.to_string e)
         in
         output_binary_int oc idx;
         Marshal.to_channel oc reply [ Marshal.Closures ];
         flush oc;
         serve ()
       end
     in
     serve ()
   with _ -> Unix._exit 2);
  Unix._exit 0

let map ?(jobs = 1) ?(retries = 0) ?(on_event = fun (_ : event) -> ()) f xs =
  let tasks = Array.of_list xs in
  let ntasks = Array.length tasks in
  let nworkers = min jobs ntasks in
  Observe.Telemetry.with_span ~cat:"parallel" "map"
    ~args:
      [
        ("jobs", Observe.Json.Int (max 1 nworkers));
        ("tasks", Observe.Json.Int ntasks);
      ]
  @@ fun () ->
  if nworkers <= 1 then
    (* Serial in-process degradation: still narrate dispatch/result so
       a serial ledger carries the same task timeline (one pseudo
       worker, this process's pid) as a parallel one. *)
    let self = Unix.getpid () in
    List.mapi
      (fun i x ->
        on_event (Dispatched { pid = self; task = i });
        Observe.Telemetry.worker "dispatch" ~pid:self ~task:i;
        let v = f x in
        on_event (Completed { pid = self; task = i });
        Observe.Telemetry.worker "result" ~pid:self ~task:i;
        v)
      xs
  else begin
    (* Anything buffered now would be flushed again by every child on
       its way through [Unix._exit]-less paths; flush first so output
       appears exactly once. *)
    flush stdout;
    flush stderr;
    let prev_sigpipe =
      (* A worker that dies mid-protocol must surface to the healing
         logic, not kill the whole experiment run. *)
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ -> None
    in
    let restore_sigpipe () =
      match prev_sigpipe with
      | Some b -> ignore (Sys.signal Sys.sigpipe b)
      | None -> ()
    in
    let results = Array.make ntasks None in
    let attempts = Array.make ntasks 0 in
    (* pending task indices, first in first out; a re-queued task goes
       to the back *)
    let pending = Queue.create () in
    for i = 0 to ntasks - 1 do
      Queue.add i pending
    done;
    let done_count = ref 0 in
    let workers = ref ([] : worker list) in
    let deaths = ref 0 in
    (* Close both pipe ends and reap the child — the fd-hygiene core:
       every worker that leaves the pool goes through here exactly
       once, so neither a crashed worker nor a [Worker_failed] unwind
       can leak descriptors or zombies across a long campaign. *)
    let dispose ~kill w =
      (try close_out w.task_out with _ -> ());
      (try close_in w.result_in with _ -> ());
      if kill then (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
      Observe.Telemetry.worker "reap" ~pid:w.pid
        ~args:[ ("killed", Observe.Json.Bool kill) ]
    in
    (* An idle worker is told to exit and reaped. *)
    let retire w =
      (try
         output_binary_int w.task_out (-1);
         flush w.task_out
       with Sys_error _ -> ());
      Observe.Telemetry.worker "exit" ~pid:w.pid;
      dispose ~kill:false w
    in
    let cleanup ~kill =
      List.iter (fun w -> if kill then dispose ~kill:true w else retire w) !workers;
      workers := [];
      restore_sigpipe ()
    in
    let fail msg =
      cleanup ~kill:true;
      raise (Worker_failed msg)
    in
    let spawn () =
      flush stdout;
      flush stderr;
      let task_r, task_w = Unix.pipe ~cloexec:false () in
      let result_r, result_w = Unix.pipe ~cloexec:false () in
      match Unix.fork () with
      | 0 ->
          in_worker_flag := true;
          (* the inherited telemetry sink belongs to the parent; the
             pool narrates worker activity from the parent's vantage *)
          Observe.Telemetry.disarm ();
          Unix.close task_w;
          Unix.close result_r;
          child_loop tasks f task_r result_w
      | pid ->
          Unix.close task_r;
          Unix.close result_w;
          let w =
            {
              pid;
              task_out = Unix.out_channel_of_descr task_w;
              result_fd = result_r;
              result_in = Unix.in_channel_of_descr result_r;
              task = -1;
            }
          in
          workers := w :: !workers;
          on_event (Spawned { pid });
          Observe.Telemetry.worker "spawn" ~pid
            ~args:
              (if !deaths > 0 then [ ("respawn", Observe.Json.Bool true) ]
               else []);
          w
    in
    let send w idx =
      output_binary_int w.task_out idx;
      flush w.task_out;
      w.task <- idx;
      on_event (Dispatched { pid = w.pid; task = idx });
      Observe.Telemetry.worker "dispatch" ~pid:w.pid ~task:idx;
      Observe.Telemetry.counter "queue_depth" (Queue.length pending)
    in
    (* Put [idx] back in the queue after its worker died, or give up on
       it once [retries] re-executions are spent. *)
    let requeue idx =
      if attempts.(idx) > retries then
        fail
          (Printf.sprintf
             "task %d given up after %d attempt(s): worker died without \
              delivering a result"
             idx attempts.(idx));
      Observe.Telemetry.worker "requeue" ~pid:0 ~task:idx
        ~args:[ ("attempt", Observe.Json.Int attempts.(idx)) ];
      Queue.add idx pending;
      Observe.Telemetry.counter "queue_depth" (Queue.length pending)
    in
    let rec select_retry fds =
      try Unix.select fds [] [] (-1.0)
      with Unix.Unix_error (Unix.EINTR, _, _) -> select_retry fds
    in
    (* Read one result frame off [w]. A truncated or unreadable frame
       means the worker died mid-protocol. *)
    let handle_frame w =
      let frame =
        try
          let idx = input_binary_int w.result_in in
          let (reply : _ reply) = Marshal.from_channel w.result_in in
          `Frame (idx, reply)
        with End_of_file | Failure _ | Sys_error _ -> `Died
      in
      match frame with
      | `Frame (idx, Ok_r v) ->
          results.(idx) <- Some v;
          incr done_count;
          w.task <- -1;
          on_event (Completed { pid = w.pid; task = idx });
          Observe.Telemetry.worker "result" ~pid:w.pid ~task:idx
      | `Frame (_, Error_r msg) ->
          (* the task itself raised: deterministic, re-running cannot
             help *)
          fail msg
      | `Died ->
          let idx = w.task in
          attempts.(idx) <- attempts.(idx) + 1;
          incr deaths;
          Observe.Telemetry.worker "died" ~pid:w.pid ~task:idx;
          workers := List.filter (fun w' -> w' != w) !workers;
          dispose ~kill:true w;
          on_event (Died { pid = w.pid; task = idx; attempt = attempts.(idx) });
          requeue idx
    in
    (try
       while !done_count < ntasks do
         (* hand pending tasks to idle workers, spawning replacements
            up to the pool size *)
         let rec assign () =
           if not (Queue.is_empty pending) then
             match List.find_opt (fun w -> w.task < 0) !workers with
             | Some w ->
                 send w (Queue.pop pending);
                 assign ()
             | None when List.length !workers < nworkers ->
                 let idx = Queue.pop pending in
                 send (spawn ()) idx;
                 assign ()
             | None -> ()
         in
         assign ();
         (* after [assign], either every worker is busy or nothing is
            pending, and an unfinished task is in flight, so [busy] is
            non-empty: block until a busy worker delivers a frame or
            dies *)
         let busy = List.filter (fun w -> w.task >= 0) !workers in
         let ready, _, _ = select_retry (List.map (fun w -> w.result_fd) busy) in
         List.iter
           (fun fd ->
             match List.find_opt (fun w -> w.result_fd = fd) !workers with
             | Some w -> handle_frame w
             | None -> ())
           ready
       done
     with
    | Worker_failed _ as e -> raise e (* [fail] already cleaned up *)
    | e ->
        (try cleanup ~kill:true with _ -> ());
        raise e);
    cleanup ~kill:false;
    Array.to_list results |> List.map Option.get
  end

(* --- Chunked dispatch --------------------------------------------------- *)

(* Dynamic policy: aim for ~4 chunks per worker so the pool can still
   rebalance around a slow chunk, bounded above so one reply frame
   never marshals an unbounded result list. *)
let chunk_cap = 256

let chunk_size ~jobs n =
  if n <= 1 then 1
  else
    let workers = max 1 jobs in
    max 1 (min chunk_cap (n / (workers * 4)))

let map_chunked ?(jobs = 1) f xs =
  let n = List.length xs in
  let c = chunk_size ~jobs n in
  if n = 0 then []
  else if c <= 1 then map ~jobs f xs
  else
    let arr = Array.of_list xs in
    let nchunks = (n + c - 1) / c in
    let chunks =
      List.init nchunks (fun i ->
          let lo = i * c in
          Array.sub arr lo (min c (n - lo)))
    in
    Observe.Telemetry.with_span ~cat:"parallel" "map_chunked"
      ~args:
        [
          ("tasks", Observe.Json.Int n);
          ("chunk", Observe.Json.Int c);
          ("chunks", Observe.Json.Int nchunks);
        ]
    @@ fun () ->
    map ~jobs (fun chunk -> Array.map f chunk) chunks
    |> List.concat_map Array.to_list
