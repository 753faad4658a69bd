(* Compact binary trace format: magic + version + JSON header, then
   tag-byte events with zigzag-varint payloads. Instruction addresses
   are delta-encoded against the previous instruction, access
   addresses against the previous access; runtime strings (runtime /
   disposition / phase names) are interned in first-use order, which
   makes the byte stream deterministic — no hash-order dependence —
   so the same run records byte-identical files on any host or OCaml
   version. *)

module Trace = Msp430.Trace
module Json = Observe.Json

type granularity = Functions of int array | Lines of int

type header = {
  benchmark : string;
  seed : int;
  frequency_mhz : int;
  wait_states : int;
  contention_penalty : int;
  system : string;
  placement : string;
  budget : int;
  granularity : granularity;
  fingerprint : int;
}

let magic = "SWTR"
let version = 1

type error =
  | Bad_magic
  | Version_mismatch of { found : int; expected : int }
  | Truncated of string
  | Corrupt of string

let error_message = function
  | Bad_magic -> "not a trace file (bad magic)"
  | Version_mismatch { found; expected } ->
      Printf.sprintf "trace format version %d (this build reads %d)" found
        expected
  | Truncated what -> Printf.sprintf "truncated trace file (%s)" what
  | Corrupt what -> Printf.sprintf "corrupt trace file (%s)" what

(* --- Tag bytes --------------------------------------------------------- *)

(* 0x00-0x03 are Instr with the source index folded into the tag. The
   reader's dispatch matches these values as literals (a jump table);
   the golden traces pin both sides to this table. *)
let tag_instr_base = 0x00
let tag_cycles_both = 0x04
let tag_cycles_unstalled = 0x05
let tag_cycles_stall = 0x06
let tag_cycles_one = 0x07 (* the single-unstalled-cycle fast path *)
let tag_fram_read_miss = 0x08
let tag_fram_read_hit = 0x09
let tag_fram_ifetch_miss = 0x0A
let tag_fram_ifetch_hit = 0x0B
let tag_fram_write = 0x0C
let tag_sram_read = 0x0D
let tag_sram_ifetch = 0x0E
let tag_sram_write = 0x0F
let tag_periph = 0x10
let tag_call = 0x11
let tag_call_unit = 0x12
let tag_return = 0x13
let tag_miss_enter = 0x14
let tag_miss_exit = 0x15
let tag_eviction = 0x16
let tag_freeze_on = 0x17
let tag_freeze_off = 0x18
let tag_cache_flush = 0x19
let tag_block_load = 0x1A
let tag_prefetch = 0x1B
let tag_phase = 0x1C
let tag_string_def = 0x1D (* interleaved definition; not an event *)
let tag_end = 0xFE

(* --- Varints ----------------------------------------------------------- *)

(* Unsigned LEB128 over OCaml's 63-bit ints; zigzag maps signed deltas
   to small unsigned values. *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag u = (u lsr 1) lxor (-(u land 1))

(* --- Header JSON ------------------------------------------------------- *)

let header_json h =
  let granularity =
    match h.granularity with
    | Functions sizes ->
        Json.Obj
          [
            ("kind", Json.String "functions");
            ( "sizes",
              Json.List (Array.to_list (Array.map (fun s -> Json.Int s) sizes))
            );
          ]
    | Lines n ->
        Json.Obj [ ("kind", Json.String "lines"); ("bytes", Json.Int n) ]
  in
  Json.Obj
    [
      ("benchmark", Json.String h.benchmark);
      ("seed", Json.Int h.seed);
      ("frequency_mhz", Json.Int h.frequency_mhz);
      ("wait_states", Json.Int h.wait_states);
      ("contention_penalty", Json.Int h.contention_penalty);
      ("system", Json.String h.system);
      ("placement", Json.String h.placement);
      ("budget", Json.Int h.budget);
      ("granularity", granularity);
      ("fingerprint", Json.Int h.fingerprint);
    ]

exception Decode of error

let corrupt fmt = Printf.ksprintf (fun s -> raise (Decode (Corrupt s))) fmt

let header_of_json j =
  let str k =
    match Option.bind (Json.member k j) Json.to_str with
    | Some s -> s
    | None -> corrupt "header field %S missing" k
  in
  let int k =
    match Option.bind (Json.member k j) Json.to_int with
    | Some n -> n
    | None -> corrupt "header field %S missing" k
  in
  let granularity =
    match Json.member "granularity" j with
    | None -> corrupt "header field \"granularity\" missing"
    | Some g -> (
        match Option.bind (Json.member "kind" g) Json.to_str with
        | Some "functions" ->
            let sizes =
              match Option.bind (Json.member "sizes" g) Json.to_list with
              | Some l ->
                  Array.of_list
                    (List.map
                       (fun v ->
                         match Json.to_int v with
                         | Some n when n >= 0 -> n
                         | Some n -> corrupt "negative function size %d" n
                         | None -> corrupt "non-integer function size")
                       l)
              | None -> corrupt "functions granularity without sizes"
            in
            Functions sizes
        | Some "lines" -> (
            match Option.bind (Json.member "bytes" g) Json.to_int with
            | Some n when n > 0 -> Lines n
            | Some n -> corrupt "non-positive line size %d" n
            | None -> corrupt "lines granularity without bytes")
        | Some k -> corrupt "unknown granularity kind %S" k
        | None -> corrupt "granularity without kind")
  in
  {
    benchmark = str "benchmark";
    seed = int "seed";
    frequency_mhz = int "frequency_mhz";
    wait_states = int "wait_states";
    contention_penalty = int "contention_penalty";
    system = str "system";
    placement = str "placement";
    budget = int "budget";
    granularity;
    fingerprint = int "fingerprint";
  }

(* --- Writer ------------------------------------------------------------ *)

(* Events are encoded straight into one fixed byte buffer at a cursor.
   The buffer spills to the channel once an event leaves the cursor at
   or past [flush_threshold]; the [event_slack] bytes above it hold the
   longest event (a tag and three nine-byte varints), so one check per
   event is the only bounds check. *)
type writer = {
  oc : out_channel;
  path : string;
  buf : Bytes.t;
  mutable pos : int;
  intern : (string, int) Hashtbl.t;
  mutable nstrings : int;
  mutable prev_pc : int;
  mutable prev_addr : int;
  mutable events : int;
  mutable closed : bool;
}

let flush_threshold = 1 lsl 16
let event_slack = 64

let spill w =
  output w.oc w.buf 0 w.pos;
  w.pos <- 0

let create_writer path header =
  let oc = open_out_bin path in
  let hdr = Json.to_string (header_json header) in
  let len = String.length hdr in
  let preamble = Bytes.create 10 in
  Bytes.blit_string magic 0 preamble 0 4;
  Bytes.set_uint16_le preamble 4 version;
  Bytes.set_int32_le preamble 6 (Int32.of_int len);
  output_bytes oc preamble;
  output_string oc hdr;
  {
    oc;
    path;
    buf = Bytes.create (flush_threshold + event_slack);
    pos = 0;
    intern = Hashtbl.create 16;
    nstrings = 0;
    prev_pc = 0;
    prev_addr = 0;
    events = 0;
    closed = false;
  }

let[@inline] put_byte w b =
  Bytes.unsafe_set w.buf w.pos (Char.unsafe_chr b);
  w.pos <- w.pos + 1

(* Encodes [n] at [pos] and returns the cursor after it. Top-level
   recursion: an inner closure would be allocated per encoded
   integer. *)
let rec varint_at buf pos n =
  if n land lnot 0x7F = 0 then begin
    Bytes.unsafe_set buf pos (Char.unsafe_chr n);
    pos + 1
  end
  else begin
    Bytes.unsafe_set buf pos (Char.unsafe_chr (0x80 lor (n land 0x7F)));
    varint_at buf (pos + 1) (n lsr 7)
  end

let add_varint w n =
  if n < 0 then invalid_arg "Trace_file: negative varint";
  w.pos <- varint_at w.buf w.pos n

let add_signed w n = add_varint w (zigzag n)

(* Interned string id; unseen strings get a definition record first
   (ids are assigned in first-use order — deterministic). Definitions
   must land between events, so intern BEFORE writing an event tag. A
   definition is the one record longer than [event_slack]: it makes
   room for itself, and a name longer than the buffer goes straight to
   the channel. *)
let intern_id w s =
  match Hashtbl.find_opt w.intern s with
  | Some id -> id
  | None ->
      let id = w.nstrings in
      w.nstrings <- id + 1;
      Hashtbl.add w.intern s id;
      let n = String.length s in
      if w.pos + n + event_slack > Bytes.length w.buf then spill w;
      put_byte w tag_string_def;
      add_varint w n;
      if n + event_slack > Bytes.length w.buf then begin
        spill w;
        output_string w.oc s
      end
      else begin
        Bytes.blit_string s 0 w.buf w.pos n;
        w.pos <- w.pos + n
      end;
      add_varint w id;
      if w.pos >= flush_threshold then spill w;
      id

let add_addr w addr =
  add_signed w (addr - w.prev_addr);
  w.prev_addr <- addr

(* Every event ends here: count it and spill a full buffer. *)
let[@inline] written w =
  w.events <- w.events + 1;
  if w.pos >= flush_threshold then spill w

let add_ifetch w tag addr home =
  put_byte w tag;
  add_addr w addr;
  add_signed w (home - addr);
  written w

let add_access w tag addr =
  put_byte w tag;
  add_addr w addr;
  written w

let add_bare w tag =
  put_byte w tag;
  written w

let add_count w tag n =
  put_byte w tag;
  add_varint w n;
  written w

(* Strings are interned before the event tag is written. *)
let add_interned w tag s =
  let id = intern_id w s in
  add_count w tag id

let sink w =
  {
    Trace.instr =
      (fun i pc ->
        put_byte w (tag_instr_base + i);
        add_signed w (pc - w.prev_pc);
        w.prev_pc <- pc;
        written w);
    cycles =
      (fun unstalled stall ->
        if stall = 0 then
          if unstalled = 1 then add_bare w tag_cycles_one
          else add_count w tag_cycles_unstalled unstalled
        else if unstalled = 0 then add_count w tag_cycles_stall stall
        else begin
          put_byte w tag_cycles_both;
          add_varint w unstalled;
          add_varint w stall;
          written w
        end);
    fram_read =
      (fun hit addr ->
        add_access w (if hit then tag_fram_read_hit else tag_fram_read_miss) addr);
    fram_ifetch =
      (fun hit addr home ->
        add_ifetch w
          (if hit then tag_fram_ifetch_hit else tag_fram_ifetch_miss)
          addr home);
    fram_write = (fun addr -> add_access w tag_fram_write addr);
    sram_read = (fun addr -> add_access w tag_sram_read addr);
    sram_ifetch = (fun addr home -> add_ifetch w tag_sram_ifetch addr home);
    sram_write = (fun addr -> add_access w tag_sram_write addr);
    periph = (fun addr -> add_access w tag_periph addr);
    call =
      (fun target u ->
        if u < 0 then add_count w tag_call target
        else begin
          put_byte w tag_call_unit;
          add_varint w target;
          add_varint w u;
          written w
        end);
    return = (fun () -> add_bare w tag_return);
    miss_enter = (fun runtime -> add_interned w tag_miss_enter runtime);
    miss_exit =
      (fun runtime disposition fid ->
        let rt = intern_id w runtime in
        let disp = intern_id w disposition in
        put_byte w tag_miss_exit;
        add_varint w rt;
        add_varint w disp;
        add_signed w fid;
        written w);
    eviction = (fun fid -> add_count w tag_eviction fid);
    freeze = (fun on -> add_bare w (if on then tag_freeze_on else tag_freeze_off));
    cache_flush = (fun () -> add_bare w tag_cache_flush);
    block_load = (fun nvm -> add_count w tag_block_load nvm);
    prefetch = (fun fid -> add_count w tag_prefetch fid);
    phase = (fun name -> add_interned w tag_phase name);
  }

let close_writer w =
  if not w.closed then begin
    w.closed <- true;
    put_byte w tag_end;
    add_varint w w.events;
    spill w;
    close_out w.oc
  end

let discard_writer w =
  if not w.closed then begin
    w.closed <- true;
    close_out_noerr w.oc
  end;
  try Sys.remove w.path with Sys_error _ -> ()

(* --- Reader ------------------------------------------------------------ *)

(* The reader streams the file through one fixed buffer, so its memory
   does not grow with the trace size. The buffer is a window onto the
   file: [chunk_bytes] bytes plus [max_event] bytes of look-ahead into
   the next chunk, plus [max_event] bytes of slack. Whenever file bytes
   remain unread the window is full, so an event starting in the first
   [chunk_bytes] bytes lies wholly inside it; the cursor slides by one
   chunk once it crosses that line. At the end of the file the slack
   past the last valid byte is zero, so an event cut short decodes out
   of zeros (every varint stops at a zero byte) and leaves the cursor
   past [lim]: one test per event then reports the truncation, before
   anything is validated or handed to a sink. *)
let chunk_bytes = 1 lsl 16

(* The longest event: a tag and three varints, each of at most nine
   bytes (a tenth is a varint overflow), rounded up. *)
let max_event = 32

type cursor = {
  ic : in_channel;
  buf : Bytes.t; (* [chunk_bytes + 2 * max_event] *)
  mutable pos : int;
  mutable lim : int; (* valid bytes in [buf] *)
  mutable rest : int; (* file bytes not yet read into [buf] *)
}

let truncated what = raise (Decode (Truncated what))

let remaining c = c.lim - c.pos + c.rest

(* Reads up to [n] more file bytes into [buf] at [lim], zeroing the
   slack after them once the file is exhausted. That is the only time
   the slack is read, so the buffer needs no clearing when created. *)
let read_more c n what =
  let n = if c.rest < n then c.rest else n in
  (* The file shrinking under the reader is a truncation too. *)
  (try really_input c.ic c.buf c.lim n with End_of_file -> truncated what);
  c.lim <- c.lim + n;
  c.rest <- c.rest - n;
  if c.rest = 0 then Bytes.fill c.buf c.lim max_event '\000'

(* Slides the window one chunk on: the look-ahead moves to the front
   and the next chunk is read behind it. Runs once per chunk, only
   while file bytes remain (so the window is full). *)
let slide c what =
  let kept = c.lim - chunk_bytes in
  Bytes.blit c.buf chunk_bytes c.buf 0 kept;
  c.pos <- c.pos - chunk_bytes;
  c.lim <- kept;
  read_more c chunk_bytes what

(* [n] is checked against the bytes left before anything is allocated,
   so a corrupt length field is an error, never a huge allocation. *)
let take c n what =
  if n < 0 then corrupt "negative %s length" what;
  if n > remaining c then truncated what;
  let s = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    if c.pos >= c.lim then slide c what;
    let k = min (n - !off) (c.lim - c.pos) in
    Bytes.blit c.buf c.pos s !off k;
    c.pos <- c.pos + k;
    off := !off + k
  done;
  Bytes.unsafe_to_string s

(* Varints are read straight from the window with no refill test (see
   above). Top-level recursion, not an inner closure: a closure here
   would be allocated per call, i.e. on every event. *)
let rec varint_loop c p shift acc =
  if shift > 62 then corrupt "varint overflow";
  let b = Char.code (Bytes.unsafe_get c.buf p) in
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if b < 0x80 then begin
    c.pos <- p + 1;
    acc
  end
  else varint_loop c (p + 1) (shift + 7) acc

(* Most payloads are one byte: that case stays inline. *)
let[@inline] varint c =
  let p = c.pos in
  let b = Char.code (Bytes.unsafe_get c.buf p) in
  if b < 0x80 then begin
    c.pos <- p + 1;
    b
  end
  else varint_loop c (p + 1) 7 (b land 0x7F)

let[@inline] signed c = unzigzag (varint c)

(* The one truncation test of an event, after its fields are read and
   before they are checked or used. *)
let[@inline] decoded c what = if c.pos > c.lim then truncated what

(* Runs [f] on a cursor over [path]; decode and I/O failures become
   typed errors. *)
let with_cursor path f =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let c =
          {
            ic;
            buf = Bytes.create (chunk_bytes + (2 * max_event));
            pos = 0;
            lim = 0;
            rest = in_channel_length ic;
          }
        in
        read_more c (chunk_bytes + max_event) "file";
        f c)
  with
  | r -> Ok r
  | exception Decode e -> Error e
  | exception Sys_error msg -> Error (Corrupt msg)

let decode_preamble c =
  if remaining c < 4 || take c 4 "magic" <> magic then raise (Decode Bad_magic);
  let found = String.get_uint16_le (take c 2 "version") 0 in
  if found <> version then
    raise (Decode (Version_mismatch { found; expected = version }));
  let len =
    Int32.to_int (String.get_int32_le (take c 4 "header length") 0)
    land 0xFFFF_FFFF
  in
  match Json.parse (take c len "header") with
  | Error msg -> corrupt "header JSON: %s" msg
  | Ok j -> header_of_json j

let read_header path = with_cursor path decode_preamble

(* Growable string table; ids are sequential so an array suffices. *)
type strings = { mutable tbl : string array; mutable n : int }

let intern_lookup s id =
  if id < 0 || id >= s.n then corrupt "string reference %d out of range" id;
  s.tbl.(id)

let intern_define s str id =
  if id <> s.n then corrupt "string definition out of order";
  if s.n = Array.length s.tbl then begin
    let tbl = Array.make (max 8 (2 * s.n)) "" in
    Array.blit s.tbl 0 tbl 0 s.n;
    s.tbl <- tbl
  end;
  s.tbl.(s.n) <- str;
  s.n <- s.n + 1

let bad_home h = corrupt "ifetch home %d outside the address space" h

(* The decode loop calls the sink's callbacks directly without
   materializing [Trace.event] values, so a scan allocates nothing per
   event. This is the hot path the record-once / replay-many speedup
   rests on. The tags are matched as literals (see "Tag bytes" above),
   which compiles to one jump table. *)
let iter path ~make =
  with_cursor path (fun c ->
      let header = decode_preamble c in
      let v = make header in
      let strings = { tbl = [||]; n = 0 } in
      (* Bounds from the header, so a damaged unit or home is an error
         here rather than a huge table in a consumer: a function id
         below the function count, a line index within the address
         space, a home inside it ([bad_home]). *)
      let max_unit =
        match header.granularity with
        | Functions sizes -> Array.length sizes - 1
        | Lines bytes -> 0x10000 / bytes
      in
      let prev_pc = ref 0 in
      let prev_addr = ref 0 in
      let count = ref 0 in
      let finished = ref false in
      while not !finished do
        if c.pos >= chunk_bytes && c.rest > 0 then slide c "event stream";
        let tag = Char.code (Bytes.unsafe_get c.buf c.pos) in
        c.pos <- c.pos + 1;
        incr count;
        match tag with
        | 0x00 | 0x01 | 0x02 | 0x03 (* instr, source index in the tag *) ->
            let pc = !prev_pc + signed c in
            decoded c "instr";
            prev_pc := pc;
            v.Trace.instr tag pc
        | 0x04 (* cycles both *) ->
            let unstalled = varint c in
            let stall = varint c in
            decoded c "cycles";
            v.Trace.cycles unstalled stall
        | 0x05 (* cycles unstalled *) ->
            let unstalled = varint c in
            decoded c "cycles";
            v.Trace.cycles unstalled 0
        | 0x06 (* cycles stall *) ->
            let stall = varint c in
            decoded c "cycles";
            v.Trace.cycles 0 stall
        | 0x07 (* cycles one *) -> v.Trace.cycles 1 0
        | 0x08 | 0x09 (* fram read miss / hit *) ->
            let a = !prev_addr + signed c in
            decoded c "fram read";
            prev_addr := a;
            v.Trace.fram_read (tag = 0x09) a
        | 0x0A | 0x0B (* fram ifetch miss / hit *) ->
            let a = !prev_addr + signed c in
            let home = a + signed c in
            decoded c "fram ifetch";
            if home land lnot 0xFFFF <> 0 then bad_home home;
            prev_addr := a;
            v.Trace.fram_ifetch (tag = 0x0B) a home
        | 0x0C (* fram write *) ->
            let a = !prev_addr + signed c in
            decoded c "fram write";
            prev_addr := a;
            v.Trace.fram_write a
        | 0x0D (* sram read *) ->
            let a = !prev_addr + signed c in
            decoded c "sram read";
            prev_addr := a;
            v.Trace.sram_read a
        | 0x0E (* sram ifetch *) ->
            let a = !prev_addr + signed c in
            let home = a + signed c in
            decoded c "sram ifetch";
            if home land lnot 0xFFFF <> 0 then bad_home home;
            prev_addr := a;
            v.Trace.sram_ifetch a home
        | 0x0F (* sram write *) ->
            let a = !prev_addr + signed c in
            decoded c "sram write";
            prev_addr := a;
            v.Trace.sram_write a
        | 0x10 (* periph *) ->
            let a = !prev_addr + signed c in
            decoded c "periph";
            prev_addr := a;
            v.Trace.periph a
        | 0x11 (* call *) ->
            let target = varint c in
            decoded c "call";
            v.Trace.call target (-1)
        | 0x12 (* call with unit *) ->
            let target = varint c in
            let u = varint c in
            decoded c "call unit";
            if u < 0 || u > max_unit then corrupt "call unit %d out of range" u;
            v.Trace.call target u
        | 0x13 (* return *) -> v.Trace.return ()
        | 0x14 (* miss enter *) ->
            let rt = varint c in
            decoded c "miss enter";
            v.Trace.miss_enter (intern_lookup strings rt)
        | 0x15 (* miss exit *) ->
            let rt = varint c in
            let disp = varint c in
            let fid = signed c in
            decoded c "miss exit";
            v.Trace.miss_exit (intern_lookup strings rt)
              (intern_lookup strings disp) fid
        | 0x16 (* eviction *) ->
            let fid = varint c in
            decoded c "eviction";
            v.Trace.eviction fid
        | 0x17 (* freeze on *) -> v.Trace.freeze true
        | 0x18 (* freeze off *) -> v.Trace.freeze false
        | 0x19 (* cache flush *) -> v.Trace.cache_flush ()
        | 0x1A (* block load *) ->
            let nvm = varint c in
            decoded c "block load";
            v.Trace.block_load nvm
        | 0x1B (* prefetch *) ->
            let fid = varint c in
            decoded c "prefetch";
            v.Trace.prefetch fid
        | 0x1C (* phase *) ->
            let id = varint c in
            decoded c "phase";
            v.Trace.phase (intern_lookup strings id)
        | 0x1D (* string definition, not an event *) ->
            decr count;
            let len = varint c in
            decoded c "string definition";
            let s = take c len "string definition" in
            if c.pos >= chunk_bytes && c.rest > 0 then
              slide c "string definition";
            let id = varint c in
            decoded c "string definition";
            intern_define strings s id
        | 0xFE (* end marker *) ->
            decr count;
            let declared = varint c in
            decoded c "end marker";
            if declared <> !count then
              corrupt "end marker declares %d events, decoded %d" declared !count;
            if remaining c <> 0 then
              corrupt "%d trailing bytes after end marker" (remaining c);
            finished := true
        | _ ->
            decr count;
            corrupt "unknown tag 0x%02X" tag
      done;
      (header, !count))
