(* Keyed append log with checksummed record frames. See store.mli for
   the file layout and the crash-safety argument. *)

type ('k, 'v) t = { tbl : ('k, 'v) Hashtbl.t; oc : out_channel option }

type error = Not_a_store of string | Fingerprint_mismatch of string

(* length (4 bytes) + MD5 of the payload (16 bytes) *)
let frame_overhead = 4 + 16

let write_record oc k v =
  let payload = Marshal.to_string (k, v) [] in
  output_binary_int oc (String.length payload);
  output_string oc (Digest.string payload);
  output_string oc payload

(* [n] bytes, or [""] when the file ends first. *)
let read_string ic n = try really_input_string ic n with End_of_file -> ""

(* Every length is checked against the bytes left in the file before
   anything is allocated, and every payload against its digest before
   it is unmarshalled. *)
let load tbl ~magic ~fingerprint path ic =
  let len = in_channel_length ic in
  if len = 0 then Ok ()
  else if read_string ic (String.length magic + 1) <> magic ^ "\n" then
    Error (Not_a_store path)
  else if read_string ic (String.length fingerprint + 1) <> fingerprint ^ "\n"
  then Error (Fingerprint_mismatch path)
  else begin
    let rec records () =
      let left = len - pos_in ic - frame_overhead in
      if left >= 0 then begin
        let n = input_binary_int ic in
        let digest = really_input_string ic 16 in
        if n >= 0 && n <= left then begin
          let payload = really_input_string ic n in
          if Digest.string payload = digest then begin
            let k, v = Marshal.from_string payload 0 in
            Hashtbl.replace tbl k v;
            records ()
          end
        end
      end
    in
    records ();
    Ok ()
  end

let compact tbl ~magic ~fingerprint path =
  let tmp = path ^ ".tmp" in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp
  in
  output_string oc (magic ^ "\n" ^ fingerprint ^ "\n");
  Hashtbl.iter (write_record oc) tbl;
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc;
  Sys.rename tmp path;
  open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path

let open_ ~magic ~fingerprint path =
  let tbl = Hashtbl.create 4096 in
  match path with
  | None -> Ok { tbl; oc = None }
  | Some path -> (
      let loaded =
        if not (Sys.file_exists path) then Ok ()
        else
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> load tbl ~magic ~fingerprint path ic)
      in
      match loaded with
      | Error _ as e -> e
      | Ok () -> Ok { tbl; oc = Some (compact tbl ~magic ~fingerprint path) })

let find t k = Hashtbl.find_opt t.tbl k
let mem t k = Hashtbl.mem t.tbl k

let add t k v =
  Hashtbl.replace t.tbl k v;
  Option.iter (fun oc -> write_record oc k v) t.oc

let flush t = Option.iter Stdlib.flush t.oc
let close t = Option.iter close_out t.oc
