(* The benchmark registry, BENCHMARK.json at the repository root: the
   workloads, and every metric with its unit, direction and (for
   end-to-end metrics) regression bound. The runner refuses to emit a
   metric the registry does not list, or with another unit. *)

module Json = Observe.Json

type metric = {
  name : string;
  unit : string;
  better : Bound.direction;
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let default_path = "BENCHMARK.json"

let ( let* ) = Result.bind

let field k conv j =
  match Option.bind (Json.member k j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "BENCHMARK.json: missing or bad %S" k)

let metric j =
  let* name = field "name" Json.to_str j in
  let* unit = field "unit" Json.to_str j in
  let* better = field "better" (fun v -> Option.bind (Json.to_str v) Bound.direction_of_string) j in
  Ok { name; unit; better; bound = Option.bind (Json.member "bound" j) Json.to_float }

let metrics k j =
  let* l = field k Json.to_list j in
  List.fold_right
    (fun m acc ->
      let* acc = acc in
      let* m = metric m in
      Ok (m :: acc))
    l (Ok [])

let parse text =
  let* j = Json.parse text in
  let* run_seconds = field "run_seconds" Json.to_int j in
  let* ws = field "workloads" Json.to_list j in
  let* workloads =
    List.fold_right
      (fun w acc ->
        let* acc = acc in
        let* n = field "name" Json.to_str w in
        Ok (n :: acc))
      ws (Ok [])
  in
  let* end_to_end = metrics "end_to_end" j in
  let* per_layer = metrics "per_layer" j in
  Ok { run_seconds; workloads; end_to_end; per_layer }

let load ?(path = default_path) () =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> parse text
  | exception Sys_error e -> Error e

let find t name =
  List.find_opt (fun m -> m.name = name) (t.end_to_end @ t.per_layer)
