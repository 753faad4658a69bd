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

(* 0x00-0x03 are Instr with the source index folded into the tag. *)
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

let events_written w = w.events

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

(* The reader streams the file through one fixed buffer refilled from
   the channel, so its memory does not grow with the trace size. *)
let chunk_bytes = 1 lsl 16

type cursor = {
  ic : in_channel;
  buf : Bytes.t;
  mutable pos : int;
  mutable lim : int; (* valid bytes in [buf] *)
  mutable rest : int; (* file bytes not yet read into [buf] *)
}

let truncated what = raise (Decode (Truncated what))

let remaining c = c.lim - c.pos + c.rest

(* Kept out of [byte]: it runs once per chunk, not once per byte. *)
let refill c what =
  if c.rest = 0 then truncated what;
  let n = if c.rest < chunk_bytes then c.rest else chunk_bytes in
  (* The file shrinking under the reader is a truncation too. *)
  (try really_input c.ic c.buf 0 n with End_of_file -> truncated what);
  c.pos <- 0;
  c.lim <- n;
  c.rest <- c.rest - n

let byte c what =
  if c.pos >= c.lim then refill c what;
  (* [refill] either fills the buffer or raises, so [pos] is in bounds. *)
  let b = Char.code (Bytes.unsafe_get c.buf c.pos) in
  c.pos <- c.pos + 1;
  b

(* [n] is checked against the bytes left before anything is allocated,
   so a corrupt length field is an error, never a huge allocation. *)
let take c n what =
  if n < 0 then corrupt "negative %s length" what;
  if n > remaining c then truncated what;
  let s = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    if c.pos >= c.lim then refill c what;
    let k = min (n - !off) (c.lim - c.pos) in
    Bytes.blit c.buf c.pos s !off k;
    c.pos <- c.pos + k;
    off := !off + k
  done;
  Bytes.unsafe_to_string s

(* Top-level recursion, not an inner [go] closure: a closure here would
   be allocated on every call, i.e. once or twice per event on the hot
   decode path. *)
let rec varint_loop c what shift acc =
  if shift > 62 then corrupt "varint overflow";
  let b = byte c what in
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if b land 0x80 = 0 then acc else varint_loop c what (shift + 7) acc

let read_varint c what = varint_loop c what 0 0

let read_signed c what = unzigzag (read_varint c what)

(* Runs [f] on a cursor over [path]; decode and I/O failures become
   typed errors. *)
let with_cursor path f =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        f
          {
            ic;
            buf = Bytes.create chunk_bytes;
            pos = 0;
            lim = 0;
            rest = in_channel_length ic;
          })
  with
  | r -> Ok r
  | exception Decode e -> Error e
  | exception Sys_error msg -> Error (Corrupt msg)

let decode_preamble c =
  if remaining c < 4 || take c 4 "magic" <> magic then raise (Decode Bad_magic);
  let v0 = byte c "version" in
  let v1 = byte c "version" in
  let found = v0 lor (v1 lsl 8) in
  if found <> version then
    raise (Decode (Version_mismatch { found; expected = version }));
  let l0 = byte c "header length" in
  let l1 = byte c "header length" in
  let l2 = byte c "header length" in
  let l3 = byte c "header length" in
  let len = l0 lor (l1 lsl 8) lor (l2 lsl 16) lor (l3 lsl 24) in
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
   rests on. *)
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
      let read_str what =
        let id = read_varint c what in
        intern_lookup strings id
      in
      let addr what =
        let a = !prev_addr + read_signed c what in
        prev_addr := a;
        a
      in
      let finished = ref false in
      while not !finished do
        let tag = byte c "event stream" in
        incr count;
        if tag < 0x04 then begin
          let pc = !prev_pc + read_signed c "instr" in
          prev_pc := pc;
          v.Trace.instr tag pc
        end
        else if tag = tag_cycles_one then v.Trace.cycles 1 0
        else if tag = tag_cycles_unstalled then
          v.Trace.cycles (read_varint c "cycles") 0
        else if tag = tag_cycles_stall then
          v.Trace.cycles 0 (read_varint c "cycles")
        else if tag = tag_cycles_both then begin
          let unstalled = read_varint c "cycles" in
          let stall = read_varint c "cycles" in
          v.Trace.cycles unstalled stall
        end
        else if tag = tag_fram_read_miss then
          v.Trace.fram_read false (addr "fram read")
        else if tag = tag_fram_read_hit then
          v.Trace.fram_read true (addr "fram read")
        else if tag = tag_fram_ifetch_miss || tag = tag_fram_ifetch_hit then begin
          let a = addr "fram ifetch" in
          let home = a + read_signed c "fram ifetch home" in
          if home land lnot 0xFFFF <> 0 then bad_home home;
          v.Trace.fram_ifetch (tag = tag_fram_ifetch_hit) a home
        end
        else if tag = tag_fram_write then v.Trace.fram_write (addr "fram write")
        else if tag = tag_sram_read then v.Trace.sram_read (addr "sram read")
        else if tag = tag_sram_ifetch then begin
          let a = addr "sram ifetch" in
          let home = a + read_signed c "sram ifetch home" in
          if home land lnot 0xFFFF <> 0 then bad_home home;
          v.Trace.sram_ifetch a home
        end
        else if tag = tag_sram_write then v.Trace.sram_write (addr "sram write")
        else if tag = tag_periph then v.Trace.periph (addr "periph")
        else if tag = tag_call then v.Trace.call (read_varint c "call") (-1)
        else if tag = tag_call_unit then begin
          let target = read_varint c "call" in
          let u = read_varint c "call unit" in
          if u < 0 || u > max_unit then corrupt "call unit %d out of range" u;
          v.Trace.call target u
        end
        else if tag = tag_return then v.Trace.return ()
        else if tag = tag_miss_enter then
          v.Trace.miss_enter (read_str "miss enter")
        else if tag = tag_miss_exit then begin
          let runtime = read_str "miss exit" in
          let disposition = read_str "miss exit" in
          let fid = read_signed c "miss exit" in
          v.Trace.miss_exit runtime disposition fid
        end
        else if tag = tag_eviction then
          v.Trace.eviction (read_varint c "eviction")
        else if tag = tag_freeze_on then v.Trace.freeze true
        else if tag = tag_freeze_off then v.Trace.freeze false
        else if tag = tag_cache_flush then v.Trace.cache_flush ()
        else if tag = tag_block_load then
          v.Trace.block_load (read_varint c "block load")
        else if tag = tag_prefetch then
          v.Trace.prefetch (read_varint c "prefetch")
        else if tag = tag_phase then v.Trace.phase (read_str "phase")
        else begin
          decr count;
          if tag = tag_end then begin
            let declared = read_varint c "end marker" in
            if declared <> !count then
              corrupt "end marker declares %d events, decoded %d" declared !count;
            if remaining c <> 0 then
              corrupt "%d trailing bytes after end marker" (remaining c);
            finished := true
          end
          else if tag = tag_string_def then begin
            let len = read_varint c "string definition" in
            let s = take c len "string definition" in
            let id = read_varint c "string definition" in
            intern_define strings s id
          end
          else corrupt "unknown tag 0x%02X" tag
        end
      done;
      (header, !count))
