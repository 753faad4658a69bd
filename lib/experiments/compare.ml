module Json = Observe.Json

(* Exact differ over two bench reports. Objects are matched by key,
   lists of uniquely named elements by name, other lists by position
   once their common prefix and suffix are set aside. Whatever is on
   one side only, or is a different kind of value on each side, is one
   difference at its root. *)

type difference = {
  path : string;
  old_value : Json.t option;
  new_value : Json.t option;
  delta : float option;
}

let difference path old_value new_value =
  let delta =
    match
      (Option.bind old_value Json.to_float, Option.bind new_value Json.to_float)
    with
    | Some o, Some n -> Some ((n -. o) /. o)
    | _ -> None
  in
  { path; old_value; new_value; delta }

(* [compare], not [=]: a NaN equals itself. *)
let same a b = compare a b = 0
let field path k = if path = "" then k else path ^ "." ^ k
let element path step = path ^ "[" ^ step ^ "]"

let name x =
  match Option.bind (Json.member "name" x) Json.to_str with
  | Some _ as s -> s
  | None -> Option.bind (Json.member "workload" x) Json.to_str

(* The elements keyed by name, if every one has a name and no two
   share it. *)
let by_name xs =
  let named =
    List.filter_map (fun x -> Option.map (fun n -> (n, x)) (name x)) xs
  in
  let names = List.sort_uniq String.compare (List.map fst named) in
  if List.compare_lengths names xs = 0 then Some named else None

(* Differences are accumulated in reverse. *)
let rec walk path o n acc =
  match (o, n) with
  | _ when same o n -> acc
  | Json.Obj os, Json.Obj ns -> matched field path os ns o n acc
  | Json.List os, Json.List ns -> (
      match (by_name os, by_name ns) with
      | Some os, Some ns -> matched element path os ns o n acc
      | _ -> positional path os ns acc)
  | _ -> difference path (Some o) (Some n) :: acc

(* Pairs matched by key. A pure reordering changes no pair, so it is
   reported at the parent. *)
and matched step path os ns o n acc =
  let acc' =
    List.fold_left
      (fun acc (k, o) ->
        match List.assoc_opt k ns with
        | Some n -> walk (step path k) o n acc
        | None -> difference (step path k) (Some o) None :: acc)
      acc os
  in
  let acc' =
    List.fold_left
      (fun acc (k, n) ->
        if List.mem_assoc k os then acc
        else difference (step path k) None (Some n) :: acc)
      acc' ns
  in
  if acc' == acc then difference path (Some o) (Some n) :: acc else acc'

and positional path os ns acc =
  let rec drop_prefix i os ns =
    match (os, ns) with
    | o :: os', n :: ns' when same o n -> drop_prefix (i + 1) os' ns'
    | _ -> (i, os, ns)
  in
  let rec drop_suffix os ns =
    match (os, ns) with
    | o :: os', n :: ns' when same o n -> drop_suffix os' ns'
    | _ -> (List.rev os, List.rev ns)
  in
  let i, os, ns = drop_prefix 0 os ns in
  let os, ns = drop_suffix (List.rev os) (List.rev ns) in
  let rec pair i os ns acc =
    let at = element path (string_of_int i) in
    match (os, ns) with
    | o :: os, n :: ns -> pair (i + 1) os ns (walk at o n acc)
    | o :: os, [] -> pair (i + 1) os [] (difference at (Some o) None :: acc)
    | [], n :: ns -> pair (i + 1) [] ns (difference at None (Some n) :: acc)
    | [], [] -> acc
  in
  pair i os ns acc

let diff old_report new_report = List.rev (walk "" old_report new_report [])

let render differences =
  let value = function
    | None -> "(absent)"
    | Some (Json.Obj kvs) -> Printf.sprintf "{%d keys}" (List.length kvs)
    | Some (Json.List xs) -> Printf.sprintf "[%d items]" (List.length xs)
    | Some v -> Json.to_string v
  in
  let line d =
    Printf.sprintf "%s: %s -> %s%s\n"
      (if d.path = "" then "(report)" else d.path)
      (value d.old_value) (value d.new_value)
      (match d.delta with
      | Some r -> Printf.sprintf " (%+.3g%%)" (100.0 *. r)
      | None -> "")
  in
  let n = List.length differences in
  Printf.sprintf "%d difference%s\n" n (if n = 1 then "" else "s")
  ^ String.concat "" (List.map line differences)
