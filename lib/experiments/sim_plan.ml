(* A task is [Engine.simulate_many_collapsed]'s batching unit, so no
   ladder is cut between workers and no stream is prepared twice. *)

module Engine = Replay.Engine

type task = {
  t_loaded : Engine.loaded;
  t_block : int;
  t_cost : int;
  t_index : int array;
  t_models : Engine.model list;
}

(* Run-stream length at [block]: every ladder walks it at least once. *)
let cost (l : Engine.loaded) ~block =
  match (l.Engine.refs, l.Engine.header.Replay.Trace_file.granularity) with
  | Engine.Line_refs a, Replay.Trace_file.Lines slot ->
      Array.length a / 2 * slot / block
  | (Engine.Line_refs a | Engine.Fn_refs a), _ -> Array.length a

let plan pairs =
  let groups = Hashtbl.create 16 in
  List.iteri
    (fun i ((l : Engine.loaded), m) ->
      let key = (l.Engine.path, Engine.sim_block l m) in
      match Hashtbl.find_opt groups key with
      | Some (_, is, ms) ->
          is := i :: !is;
          ms := m :: !ms
      | None -> Hashtbl.add groups key (l, ref [ i ], ref [ m ]))
    pairs;
  Hashtbl.fold
    (fun (_, block) (l, is, ms) acc ->
      {
        t_loaded = l;
        t_block = block;
        t_cost = cost l ~block;
        t_index = Array.of_list (List.rev !is);
        t_models = List.rev !ms;
      }
      :: acc)
    groups []
  |> List.sort (fun a b ->
         compare (b.t_cost, a.t_index.(0)) (a.t_cost, b.t_index.(0)))

let run ?jobs ?retries ?on_event tasks =
  let results =
    Parallel.map ?jobs ?retries ?on_event
      (fun t -> Engine.simulate_many_collapsed t.t_loaded t.t_models)
      tasks
  in
  let n = List.fold_left (fun n t -> n + Array.length t.t_index) 0 tasks in
  let out = Array.make n None in
  List.iter2
    (fun t (sims, _) ->
      List.iteri (fun k s -> out.(t.t_index.(k)) <- Some s) sims)
    tasks results;
  ( List.map Option.get (Array.to_list out),
    List.fold_left (fun acc (_, c) -> acc + c) 0 results )
