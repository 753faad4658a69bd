(* Minimal JSON printer and parser for the exporters (Chrome traces,
   bench/report.json) and the exact gate (`swapram_cli compare`),
   which must read reports back. No external
   dependencies. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Strings are treated as byte sequences of unknown provenance —
   symbol names can come from hostile sources (a crafted mini-C file's
   function names end up in Chrome traces and reports). Everything
   outside printable ASCII is \u-escaped byte-wise: control characters
   (including DEL) because JSON forbids them raw, and bytes >= 0x80
   because they need not form valid UTF-8. Escaped output is therefore
   always valid JSON regardless of input encoding; a \u00XX byte
   escape decodes as the Latin-1 code point of that byte. *)
let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 || Char.code c >= 0x7F ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_repr f =
  if Float.is_nan f || Float.is_integer f = false && Float.is_finite f = false
  then "null" (* NaN / inf are not JSON; degrade to null *)
  else if Float.is_finite f then Printf.sprintf "%.6g" f
  else "null"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  write buf v;
  Buffer.contents buf

(* Pretty printer with two-space indent, for the human-diffable
   bench/report.json artifact. *)
let rec write_pretty buf indent = function
  | (Null | Bool _ | Int _ | Float _ | String _) as v -> write buf v
  | List [] -> Buffer.add_string buf "[]"
  | List xs ->
      let pad = String.make indent ' ' in
      let pad' = String.make (indent + 2) ' ' in
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad';
          write_pretty buf (indent + 2) x)
        xs;
      Buffer.add_char buf '\n';
      Buffer.add_string buf pad;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj kvs ->
      let pad = String.make indent ' ' in
      let pad' = String.make (indent + 2) ' ' in
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          write_pretty buf (indent + 2) v)
        kvs;
      Buffer.add_char buf '\n';
      Buffer.add_string buf pad;
      Buffer.add_char buf '}'

let to_string_pretty v =
  let buf = Buffer.create 4096 in
  write_pretty buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- Parser ------------------------------------------------------------ *)

(* Recursive-descent parser for the subset of JSON this module emits
   (which is all of standard JSON). Numbers without '.', 'e' or 'E'
   parse as [Int]; everything else as [Float]. \uXXXX escapes below
   0x0100 decode to the single byte (inverse of [escape]'s byte-wise
   encoding); higher code points are UTF-8 encoded. Surrogate pairs
   are not combined — reports and traces never emit them. *)

exception Fail of string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v =
      try int_of_string ("0x" ^ String.sub s !pos 4)
      with _ -> fail "bad \\u escape"
    in
    pos := !pos + 4;
    v
  in
  let utf8_add buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x100 then
      (* Byte escape produced by [escape]; restore the raw byte. *)
      Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' -> utf8_add buf (hex4 ())
              | _ -> fail "bad escape character");
              loop ())
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let rec loop () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') ->
          advance ();
          loop ()
      | Some ('.' | 'e' | 'E') ->
          is_float := true;
          advance ();
          loop ()
      | _ -> ()
    in
    loop ();
    if !pos = start then fail "expected number";
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "malformed number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          (* Out-of-range integer literal; degrade to float. *)
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail "malformed number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          let rec elems () =
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items := parse_value () :: !items;
                elems ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elems ();
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let member () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let items = ref [ member () ] in
          let rec members () =
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items := member () :: !items;
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !items)
        end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg

(* --- Accessors --------------------------------------------------------- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function String s -> Some s | _ -> None
let to_list = function List xs -> Some xs | _ -> None
