(* The on-disk store behind the DSE memo and the campaign checkpoint:
   damaged files load exactly the records in front of the first
   damaged byte and never raise, and a kill at any instant of a
   reopen (which compacts) loses no entry. *)

module Store = Experiments.Store

let magic = "swapram-store-test/1"
let fingerprint = "test"

let open_store path : ((int, string) Store.t, Store.error) result =
  Store.open_ ~magic ~fingerprint (Some path)

let open_exn path =
  match open_store path with
  | Ok s -> s
  | Error _ -> Alcotest.fail "store rejected its own file"

(* A path that does not exist yet; the file and its compaction temp
   are removed afterwards. *)
let with_path f =
  let path = Filename.temp_file "store-test-" ".log" in
  Sys.remove path;
  let cleanup () =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ path; path ^ ".tmp" ]
  in
  Fun.protect ~finally:cleanup (fun () -> f path)

let file_size path = (Unix.stat path).Unix.st_size

(* Append [values] under keys 0, 1, ...; return the file size after
   the header and after each record — the frame boundaries, learnt
   without knowing the encoding. *)
let write_records path values =
  let s = open_exn path in
  let header_end = file_size path in
  let ends =
    List.mapi
      (fun k v ->
        Store.add s k v;
        Store.flush s;
        file_size path)
      values
  in
  Store.close s;
  (header_end, ends)

(* Keys [0, n) are bound to their values and no other written key is. *)
let holds_exactly s values n =
  List.for_all
    (fun (k, v) ->
      if k < n then Store.find s k = Some v else not (Store.mem s k))
    (List.mapi (fun k v -> (k, v)) values)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> output_string oc data)

(* --- damaged files ----------------------------------------------------- *)

type damage = Truncate of int | Flips of (int * int) list

let show_damage = function
  | Truncate n -> Printf.sprintf "truncate at %d" n
  | Flips fs ->
      "flip "
      ^ String.concat ", "
          (List.map (fun (p, x) -> Printf.sprintf "%d^%02x" p x) fs)

(* Positions are drawn large and reduced modulo the file length once
   the file exists. *)
let gen_case =
  QCheck2.Gen.(
    let* values = list_size (int_range 0 12) (string_size (int_range 0 40)) in
    let* damage =
      oneof
        [
          map (fun n -> Truncate n) nat;
          map
            (fun fs -> Flips fs)
            (list_size (int_range 1 3) (pair nat (int_range 1 255)));
        ]
    in
    return (values, damage))

let print_case (values, damage) =
  Printf.sprintf "%d records of sizes [%s], %s" (List.length values)
    (String.concat "; "
       (List.map (fun v -> string_of_int (String.length v)) values))
    (show_damage damage)

let prop_damage_loads_prefix =
  QCheck2.Test.make ~count:300
    ~name:"damaged store loads the records before the first damage"
    ~print:print_case gen_case (fun (values, damage) ->
      with_path (fun path ->
          let header_end, ends = write_records path values in
          let data = read_file path in
          let len = String.length data in
          let damaged, first_bad =
            match damage with
            | Truncate n ->
                let n = n mod (len + 1) in
                (String.sub data 0 n, n)
            | Flips fs ->
                let fs =
                  List.sort_uniq
                    (fun (a, _) (b, _) -> compare a b)
                    (List.map (fun (p, x) -> (p mod len, x)) fs)
                in
                let b = Bytes.of_string data in
                List.iter
                  (fun (p, x) ->
                    Bytes.set b p
                      (Char.chr (Char.code (Bytes.get b p) lxor x)))
                  fs;
                (Bytes.to_string b, fst (List.hd fs))
          in
          write_file path damaged;
          let intact =
            List.length (List.filter (fun e -> e <= first_bad) ends)
          in
          match open_store path with
          | Error _ -> first_bad < header_end && String.length damaged > 0
          | Ok s ->
              Store.close s;
              let loaded = holds_exactly s values intact in
              (* the compacted rewrite reloads to the same set *)
              let s' = open_exn path in
              Store.close s';
              (first_bad >= header_end || String.length damaged = 0)
              && loaded
              && holds_exactly s' values intact))

(* --- kill during compaction ---------------------------------------------- *)

(* A child reopens the store in a loop — every open loads, writes
   [PATH.tmp] and renames it over [PATH] — and is SIGKILLed after a
   delay; the delays step through several reopen cycles. Whatever
   instant the kill lands on, the parent's reopen must see exactly the
   original entries. *)
let kill_during_compaction () =
  with_path (fun path ->
      let n = 2000 in
      let values =
        List.init n (fun k -> String.make 512 (Char.chr (k land 255)))
      in
      ignore (write_records path values);
      List.iter
        (fun delay ->
          match Unix.fork () with
          | 0 -> (
              try
                while true do
                  Store.close (open_exn path)
                done
              with _ -> Unix._exit 2)
          | pid ->
              Unix.sleepf delay;
              Unix.kill pid Sys.sigkill;
              ignore (Unix.waitpid [] pid);
              let s = open_exn path in
              Store.close s;
              Alcotest.(check bool)
                (Printf.sprintf "all %d entries after a kill at %.0f ms" n
                   (delay *. 1000.))
                true (holds_exactly s values n))
        (List.init 25 (fun i -> 0.002 *. float_of_int i));
      (* a stale temp file from some earlier kill is overwritten *)
      write_file (path ^ ".tmp") "garbage";
      let s = open_exn path in
      Store.close s;
      Alcotest.(check bool)
        "leftover temp ignored" true (holds_exactly s values n);
      Alcotest.(check bool) "leftover temp replaced" false
        (Sys.file_exists (path ^ ".tmp")))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_damage_loads_prefix;
    Alcotest.test_case "kill during compaction loses nothing" `Quick
      kill_during_compaction;
  ]
