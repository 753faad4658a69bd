(* Compact binary trace format: magic + version + JSON header, then a
   byte stream of records. An instruction is normally one record
   against a template, interned per (pc, home) on first sight: the
   template fixes the instruction's source, its fetches, its unstalled
   cycles and the order of its accesses and call/return events, so the
   record holds only what varies (the FRAM read-cache hit bits, the
   data addresses, a call's target and unit). Stalls are not stored:
   they follow from the hit bits and the header's wait states and
   contention penalty. Anything a template cannot express falls back
   to tag-byte events with zigzag-varint payloads. Runtime strings and
   templates are interned in first-use order, which makes the byte
   stream deterministic — no hash-order dependence — so the same run
   records byte-identical files on any host or OCaml version. *)

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
let version = 2

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
let tag_template_def = 0x1E (* interleaved definition; not an event *)
let tag_end = 0x1F

(* 0x80-0xFF: one templated instruction. Bit 6 set means the template
   id follows as a varint; clear means the template is the predicted
   one, the template that followed the previous instruction's template
   the last time it was seen. Bits 0-5 are the first six hit bits. *)
let tag_record = 0x80
let record_explicit = 0x40
let tag_hit_bits = 6

(* --- Templates --------------------------------------------------------- *)

(* A template is the instruction's events after its [instr], in order,
   less the stall [cycles] events, which are derived: the ops of
   [Trace.template], one int each. *)
(* Bounds that keep a record within [max_event] bytes: every data
   access has one payload varint and a call two (target, unit + 1),
   and the hit bits past the tag's six take one raw byte per eight. *)
let max_ops = 48
let max_payload = 16
let max_hit_bits = 30
let max_unstalled = 0xFFFF

(* The writer's pc table holds 16-bit ids; past this many templates new
   keys stay tagged. *)
let max_templates = 0xFFFF

let extra_bit_bytes nbits =
  if nbits <= tag_hit_bits then 0 else (nbits - tag_hit_bits + 7) / 8

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

(* Records are encoded straight into one fixed byte buffer at a cursor.
   The buffer spills to the channel between instructions, and between
   events outside a templated record, once the cursor is at or past
   [flush_threshold]; the [event_slack] bytes above it hold a whole
   instruction even when it departs from its template and is rewritten
   as tagged events (see [depart]). *)

(* Templates are stored flat: their ops back to back in one pool, in
   id order, and a few ints per id. *)

(* What the writer does with the events of the current instruction:
   [Pending] until its first fetch picks a template, then [Templated]
   (matched op by op), [Building] (the first sighting of its key: tagged
   events, with the template collected alongside) or [Tagged]. *)
type mode = Tagged | Pending | Templated | Building

type writer = {
  oc : out_channel;
  path : string;
  tmp : string; (* written here, renamed over [path] when complete *)
  buf : Bytes.t;
  mutable pos : int;
  intern : (string, int) Hashtbl.t;
  mutable nstrings : int;
  mutable prev_pc : int;
  mutable prev_addr : int;
  mutable events : int;
  mutable closed : bool;
  wait_states : int;
  contention : int;
  by_pc : Bytes.t; (* 1 + the template last used at each even pc, or 0 *)
  keyed : (int, int) Hashtbl.t;
      (* by [key], the templates of each pc that has more than one *)
  mutable pool : int array; (* every template's ops, in id order *)
  mutable t_off : int array; (* per id, its ops' offset in [pool]; one more *)
  mutable t_key : int array; (* per id, its [key] *)
  mutable t_nbits : int array;
  mutable t_next : int array; (* the template that followed it last time *)
  mutable ntpls : int;
  mutable last : int; (* the previous instruction's template, or -1 *)
  (* The instruction in progress. *)
  mutable mode : mode;
  mutable src : int;
  mutable pc : int;
  mutable pc_before : int; (* [prev_pc] before it, for a tagged [instr] *)
  mutable ops_at : int; (* Templated: the template's ops in [pool] *)
  mutable nops : int;
  mutable k : int; (* ops matched (or built) so far *)
  mutable fetches : int;
  mutable frams : int; (* FRAM accesses, for the contention rule *)
  mutable stall_due : int; (* the stall the last FRAM access owes, or 0 *)
  mutable bits : int;
  mutable nbits : int;
  mutable payload : int; (* payload varints built so far *)
  mutable tpl : int;
  mutable explicit : bool;
  mutable rec_start : int;
  mutable pay_start : int;
  mutable addr_before : int;
  builder : int array;
  spare : Bytes.t;
  mutable sp : int;
}

let flush_threshold = 1 lsl 16
let event_slack = 4096

let spill w =
  output w.oc w.buf 0 w.pos;
  w.pos <- 0

(* The writer fills [PATH.tmp] and renames it over [PATH] only once the
   end marker is out, as the memo store's compaction does: a
   process killed mid-recording leaves at most a stale temporary file,
   never a cut trace under the final name. *)
let create_writer path header =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
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
    tmp;
    buf = Bytes.create (flush_threshold + event_slack);
    pos = 0;
    intern = Hashtbl.create 16;
    nstrings = 0;
    prev_pc = 0;
    prev_addr = 0;
    events = 0;
    closed = false;
    wait_states = header.wait_states;
    contention = header.contention_penalty;
    by_pc = Bytes.make 0x10000 '\000';
    keyed = Hashtbl.create 16;
    pool = Array.make 256 0;
    t_off = Array.make 65 0;
    t_key = Array.make 64 0;
    t_nbits = Array.make 64 0;
    t_next = Array.make 64 0;
    ntpls = 0;
    last = -1;
    mode = Tagged;
    src = 0;
    pc = 0;
    pc_before = 0;
    ops_at = 0;
    nops = 0;
    k = 0;
    fetches = 0;
    frams = 0;
    stall_due = 0;
    bits = 0;
    nbits = 0;
    payload = 0;
    tpl = -1;
    explicit = false;
    rec_start = 0;
    pay_start = 0;
    addr_before = 0;
    builder = Array.make max_ops 0;
    spare = Bytes.create (max_payload * 10);
    sp = 0;
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

(* Spill a full buffer; never inside a templated record. *)
let[@inline] written w = if w.pos >= flush_threshold then spill w

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
      written w;
      id

(* Tagged events. A fetch's address is relative to its instruction's
   pc, a data access's to the previous data access. *)

let t_instr w =
  put_byte w (tag_instr_base + w.src);
  add_signed w (w.pc - w.pc_before);
  w.last <- -1

let t_ifetch w tag addr home =
  put_byte w tag;
  add_signed w (addr - w.prev_pc);
  add_signed w (home - addr)

let t_access w tag addr =
  put_byte w tag;
  add_signed w (addr - w.prev_addr);
  w.prev_addr <- addr

let t_count w tag n =
  put_byte w tag;
  add_varint w n

let t_cycles w unstalled stall =
  if stall = 0 then
    if unstalled = 1 then put_byte w tag_cycles_one
    else t_count w tag_cycles_unstalled unstalled
  else if unstalled = 0 then t_count w tag_cycles_stall stall
  else begin
    put_byte w tag_cycles_both;
    add_varint w unstalled;
    add_varint w stall
  end

let t_call w target u =
  if u < 0 then t_count w tag_call target
  else begin
    put_byte w tag_call_unit;
    add_varint w target;
    add_varint w u
  end

let fram_tag ~ifetch hit =
  if ifetch then if hit then tag_fram_ifetch_hit else tag_fram_ifetch_miss
  else if hit then tag_fram_read_hit
  else tag_fram_read_miss

let[@inline] fram_stall w hit n =
  Trace.stall_rule ~wait_states:w.wait_states ~contention:w.contention hit n

let[@inline] fram_access w hit =
  let n = w.frams + 1 in
  w.frams <- n;
  w.stall_due <- fram_stall w hit n

(* --- Templated records --- *)

let key ~src ~pc ~hd = (((hd lsl 2) lor src) lsl 16) lor pc

(* The template for the current instruction's key, or -1: the one last
   used at its pc, else (the pc has several) the keyed one. *)
let lookup w hd =
  let id = Bytes.get_uint16_le w.by_pc w.pc - 1 in
  if id < 0 then -1
  else
    let key = key ~src:w.src ~pc:w.pc ~hd in
    if w.t_key.(id) = key then id
    else
      match Hashtbl.find w.keyed key with
      | id ->
          Bytes.set_uint16_le w.by_pc w.pc (id + 1);
          id
      | exception Not_found -> -1

(* Starts a record: a tag byte and the hit bytes are reserved and
   filled in by [seal]. *)
let open_record w id =
  w.tpl <- id;
  w.ops_at <- w.t_off.(id);
  w.nops <- w.t_off.(id + 1) - w.ops_at;
  w.rec_start <- w.pos;
  w.addr_before <- w.prev_addr;
  w.explicit <- w.last < 0 || w.t_next.(w.last) <> id;
  w.pos <- w.pos + 1;
  if w.explicit then add_varint w id;
  w.pos <- w.pos + extra_bit_bytes w.t_nbits.(id);
  w.pay_start <- w.pos;
  w.mode <- Templated

let seal w =
  let bits = w.bits in
  Bytes.unsafe_set w.buf w.rec_start
    (Char.unsafe_chr
       (tag_record
       lor (if w.explicit then record_explicit else 0)
       lor (bits land ((1 lsl tag_hit_bits) - 1))));
  let extra = extra_bit_bytes w.t_nbits.(w.tpl) in
  for i = 0 to extra - 1 do
    Bytes.unsafe_set w.buf
      (w.pay_start - extra + i)
      (Char.unsafe_chr ((bits lsr (tag_hit_bits + (8 * i))) land 0xFF))
  done;
  if w.last >= 0 then w.t_next.(w.last) <- w.tpl;
  w.last <- w.tpl;
  w.mode <- Tagged

let rec spare_varint w shift acc =
  let b = Char.code (Bytes.unsafe_get w.spare w.sp) in
  w.sp <- w.sp + 1;
  let acc = acc lor ((b land 0x7F) lsl shift) in
  if b < 0x80 then acc else spare_varint w (shift + 7) acc

(* Re-emission helpers for [depart]: the next payload value, and the
   next hit bit (consumed from [w.bits]). *)
let spare_data w = w.prev_addr + unzigzag (spare_varint w 0 0)

let next_bit w =
  let hit = w.bits land 1 = 1 in
  w.bits <- w.bits lsr 1;
  hit

(* Re-emits the stall of the [j]-th op, an FRAM access, unless it is
   the last op and its stall is still due (it has not happened). *)
let re_stall w j hit =
  w.frams <- w.frams + 1;
  let s = fram_stall w hit w.frams in
  if s <> 0 && not (j = w.k - 1 && w.stall_due <> 0) then t_cycles w 0 s

(* The current instruction departs from its template: rewind to the
   record's start and write what it matched so far as tagged events,
   from the template, the hit bits and the payload bytes already
   encoded (the data deltas are the same in both forms). A stall still
   due for the last access has not happened and is not written. The
   caller then writes the departing event tagged. *)
let depart w =
  let len = w.pos - w.pay_start in
  Bytes.blit w.buf w.pay_start w.spare 0 len;
  w.sp <- 0;
  w.pos <- w.rec_start;
  w.prev_addr <- w.addr_before;
  w.frams <- 0;
  t_instr w;
  let fetch = ref w.pc in
  for j = 0 to w.k - 1 do
    let op = w.pool.(w.ops_at + j) in
    let kind = op land 15 in
    if kind = Trace.op_fram_ifetch || kind = Trace.op_sram_ifetch then begin
      let a = !fetch in
      fetch := a + 2;
      if kind = Trace.op_sram_ifetch then t_ifetch w tag_sram_ifetch a (a + (op asr 4))
      else begin
        let hit = next_bit w in
        t_ifetch w (fram_tag ~ifetch:true hit) a (a + (op asr 4));
        re_stall w j hit
      end
    end
    else if kind = Trace.op_fram_read then begin
      let hit = next_bit w in
      t_access w (fram_tag ~ifetch:false hit) (spare_data w);
      re_stall w j hit
    end
    else if kind = Trace.op_fram_write then begin
      t_access w tag_fram_write (spare_data w);
      re_stall w j false
    end
    else if kind = Trace.op_sram_read then t_access w tag_sram_read (spare_data w)
    else if kind = Trace.op_sram_write then t_access w tag_sram_write (spare_data w)
    else if kind = Trace.op_periph then t_access w tag_periph (spare_data w)
    else if kind = Trace.op_cycles then t_cycles w (op lsr 4) 0
    else if kind = Trace.op_call then begin
      let target = spare_varint w 0 0 in
      t_call w target (spare_varint w 0 0 - 1)
    end
    else put_byte w tag_return
  done;
  w.mode <- Tagged

let grown a n = if n <= Array.length a then a else Array.append a a

(* The first sighting of a key completes: define its template. A pc
   that gets a second template puts both in [keyed]. *)
let define w =
  let id = w.ntpls in
  let off = w.t_off.(id) in
  w.t_off <- grown w.t_off (id + 2);
  w.t_key <- grown w.t_key (id + 1);
  w.t_nbits <- grown w.t_nbits (id + 1);
  w.t_next <- grown w.t_next (id + 1);
  while off + w.k > Array.length w.pool do
    w.pool <- Array.append w.pool w.pool
  done;
  Array.blit w.builder 0 w.pool off w.k;
  let key = key ~src:w.src ~pc:w.pc ~hd:(w.builder.(0) asr 4) in
  w.t_off.(id + 1) <- off + w.k;
  w.t_key.(id) <- key;
  w.t_nbits.(id) <- w.nbits;
  w.t_next.(id) <- -1;
  w.ntpls <- id + 1;
  let prior = Bytes.get_uint16_le w.by_pc w.pc - 1 in
  if prior >= 0 then begin
    Hashtbl.replace w.keyed w.t_key.(prior) prior;
    Hashtbl.replace w.keyed key id
  end;
  Bytes.set_uint16_le w.by_pc w.pc (id + 1);
  put_byte w tag_template_def;
  add_varint w id;
  add_varint w w.src;
  add_varint w w.pc;
  add_varint w w.k;
  for i = 0 to w.k - 1 do
    let op = w.builder.(i) in
    let kind = op land 15 in
    add_varint w kind;
    if kind = Trace.op_fram_ifetch || kind = Trace.op_sram_ifetch then add_signed w (op asr 4)
    else if kind = Trace.op_cycles then add_varint w (op lsr 4)
  done;
  w.last <- id;
  written w

(* Ends the current instruction, before the next one or the end marker. *)
let finish w =
  match w.mode with
  | Templated ->
      if w.stall_due = 0 && w.k = w.nops then seal w else depart w
  | Building -> if w.stall_due = 0 && w.ntpls < max_templates then define w
  | Pending -> t_instr w
  | Tagged -> ()

(* The current instruction leaves the templated path; its events so far
   are tagged, and so is every later one. *)
let escape w =
  match w.mode with
  | Templated -> depart w
  | Pending ->
      t_instr w;
      w.mode <- Tagged
  | Building -> w.mode <- Tagged
  | Tagged -> ()

(* Building: can the template take one more op with [payload] varints
   and [bits] hit bits? If not, the instruction stays tagged. *)
let can_build w ~payload ~bits =
  w.stall_due = 0 && w.k < max_ops
  && w.payload + payload <= max_payload
  && w.nbits + bits <= max_hit_bits

let build w op ~payload =
  w.builder.(w.k) <- op;
  w.k <- w.k + 1;
  w.payload <- w.payload + payload

(* Templated: is [op] the template's next one? *)
let[@inline] matches w op =
  w.stall_due = 0 && w.k < w.nops && Array.unsafe_get w.pool (w.ops_at + w.k) = op

let[@inline] take_bit w hit =
  if hit then w.bits <- w.bits lor (1 lsl w.nbits);
  w.nbits <- w.nbits + 1

(* --- The sink --- *)

let on_instr w i pc =
  finish w;
  written w;
  w.src <- i;
  w.pc <- pc;
  w.pc_before <- w.prev_pc;
  w.prev_pc <- pc;
  w.k <- 0;
  w.fetches <- 0;
  w.frams <- 0;
  w.stall_due <- 0;
  w.bits <- 0;
  w.nbits <- 0;
  w.payload <- 0;
  w.mode <- Pending

let t_fetch w ~fram hit addr home =
  t_ifetch w
    (if fram then fram_tag ~ifetch:true hit else tag_sram_ifetch)
    addr home;
  written w

let rec on_ifetch w ~fram hit addr home =
  let op = (if fram then Trace.op_fram_ifetch else Trace.op_sram_ifetch) lor ((home - addr) lsl 4) in
  let at = addr = w.pc + (2 * w.fetches) in
  match w.mode with
  | Templated ->
      if at && matches w op then begin
        w.k <- w.k + 1;
        w.fetches <- w.fetches + 1;
        if fram then begin
          take_bit w hit;
          fram_access w hit
        end
      end
      else begin
        depart w;
        t_fetch w ~fram hit addr home
      end
  | Building ->
      t_fetch w ~fram hit addr home;
      if at && home land lnot 0xFFFF = 0 && can_build w ~payload:0 ~bits:(Bool.to_int fram)
      then begin
        build w op ~payload:0;
        w.fetches <- w.fetches + 1;
        if fram then begin
          w.nbits <- w.nbits + 1;
          fram_access w hit
        end
      end
      else w.mode <- Tagged
  | Tagged -> t_fetch w ~fram hit addr home
  | Pending ->
      (* The first fetch picks the template by (pc, home). *)
      if at && w.pc land lnot 0xFFFE = 0 && home land lnot 0xFFFF = 0 then begin
        let id = lookup w (home - addr) in
        if id >= 0 then open_record w id
        else begin
          t_instr w;
          w.mode <- Building
        end
      end
      else begin
        t_instr w;
        w.mode <- Tagged
      end;
      on_ifetch w ~fram hit addr home

let on_cycles w unstalled stall =
  match w.mode with
  | Templated ->
      if w.stall_due <> 0 then
        if unstalled = 0 && stall = w.stall_due then w.stall_due <- 0
        else begin
          depart w;
          t_cycles w unstalled stall;
          written w
        end
      else if stall = 0 && matches w (Trace.op_cycles lor (unstalled lsl 4)) then
        w.k <- w.k + 1
      else begin
        depart w;
        t_cycles w unstalled stall;
        written w
      end
  | Building ->
      t_cycles w unstalled stall;
      written w;
      if w.stall_due <> 0 then
        if unstalled = 0 && stall = w.stall_due then w.stall_due <- 0
        else w.mode <- Tagged
      else if
        stall = 0 && unstalled > 0 && unstalled <= max_unstalled
        && can_build w ~payload:0 ~bits:0
      then build w (Trace.op_cycles lor (unstalled lsl 4)) ~payload:0
      else w.mode <- Tagged
  | Pending | Tagged ->
      escape w;
      t_cycles w unstalled stall;
      written w

(* A data access: [hit] is [Some] for an FRAM read, [fram] for any FRAM
   access. *)
let on_access w kind tag ~fram ~read hit addr =
  match w.mode with
  | Templated ->
      if matches w kind then begin
        w.k <- w.k + 1;
        add_signed w (addr - w.prev_addr);
        w.prev_addr <- addr;
        if read then take_bit w hit;
        if fram then fram_access w hit
      end
      else begin
        depart w;
        t_access w tag addr;
        written w
      end
  | Building ->
      t_access w tag addr;
      written w;
      if can_build w ~payload:1 ~bits:(Bool.to_int read) then begin
        build w kind ~payload:1;
        if read then w.nbits <- w.nbits + 1;
        if fram then fram_access w hit
      end
      else w.mode <- Tagged
  | Pending | Tagged ->
      escape w;
      t_access w tag addr;
      written w

let on_call w target u =
  let fits = target >= 0 && u >= -1 in
  match w.mode with
  | Templated ->
      if fits && matches w Trace.op_call then begin
        w.k <- w.k + 1;
        add_varint w target;
        add_varint w (u + 1)
      end
      else begin
        depart w;
        t_call w target u;
        written w
      end
  | Building ->
      t_call w target u;
      written w;
      if fits && can_build w ~payload:2 ~bits:0 then build w Trace.op_call ~payload:2
      else w.mode <- Tagged
  | Pending | Tagged ->
      escape w;
      t_call w target u;
      written w

let on_return w =
  match w.mode with
  | Templated ->
      if matches w Trace.op_return then w.k <- w.k + 1
      else begin
        depart w;
        put_byte w tag_return;
        written w
      end
  | Building ->
      put_byte w tag_return;
      written w;
      if can_build w ~payload:0 ~bits:0 then build w Trace.op_return ~payload:0
      else w.mode <- Tagged
  | Pending | Tagged ->
      escape w;
      put_byte w tag_return;
      written w

(* Runtime events and phase markers always leave the templated path;
   strings are interned after [escape], which may rewind the cursor. *)
let on_count w tag n =
  escape w;
  t_count w tag n;
  written w

let on_bare w tag =
  escape w;
  put_byte w tag;
  written w

let on_interned w tag name =
  escape w;
  t_count w tag (intern_id w name);
  written w

let sink w =
  {
    Trace.instr =
      (fun i pc ->
        w.events <- w.events + 1;
        on_instr w i pc);
    cycles =
      (fun unstalled stall ->
        w.events <- w.events + 1;
        on_cycles w unstalled stall);
    fram_read =
      (fun hit addr ->
        w.events <- w.events + 1;
        on_access w Trace.op_fram_read
          (fram_tag ~ifetch:false hit)
          ~fram:true ~read:true hit addr);
    fram_ifetch =
      (fun hit addr home ->
        w.events <- w.events + 1;
        on_ifetch w ~fram:true hit addr home);
    fram_write =
      (fun addr ->
        w.events <- w.events + 1;
        on_access w Trace.op_fram_write tag_fram_write ~fram:true ~read:false false addr);
    sram_read =
      (fun addr ->
        w.events <- w.events + 1;
        on_access w Trace.op_sram_read tag_sram_read ~fram:false ~read:false false addr);
    sram_ifetch =
      (fun addr home ->
        w.events <- w.events + 1;
        on_ifetch w ~fram:false false addr home);
    sram_write =
      (fun addr ->
        w.events <- w.events + 1;
        on_access w Trace.op_sram_write tag_sram_write ~fram:false ~read:false false addr);
    periph =
      (fun addr ->
        w.events <- w.events + 1;
        on_access w Trace.op_periph tag_periph ~fram:false ~read:false false addr);
    call =
      (fun target u ->
        w.events <- w.events + 1;
        on_call w target u);
    return =
      (fun () ->
        w.events <- w.events + 1;
        on_return w);
    runtime =
      (fun ev ->
        w.events <- w.events + 1;
        match ev with
        | Miss_enter { runtime } -> on_interned w tag_miss_enter runtime
        | Miss_exit { runtime; disposition; fid } ->
            escape w;
            let rt = intern_id w runtime in
            let disp = intern_id w disposition in
            put_byte w tag_miss_exit;
            add_varint w rt;
            add_varint w disp;
            add_signed w fid;
            written w
        | Eviction { fid } -> on_count w tag_eviction fid
        | Freeze { on } -> on_bare w (if on then tag_freeze_on else tag_freeze_off)
        | Cache_flush -> on_bare w tag_cache_flush
        | Block_load { nvm } -> on_count w tag_block_load nvm
        | Prefetch { fid } -> on_count w tag_prefetch fid
        | Phase { name } -> on_interned w tag_phase name);
    templated = None;
  }

let close_writer w =
  if not w.closed then begin
    w.closed <- true;
    finish w;
    w.mode <- Tagged;
    put_byte w tag_end;
    add_varint w w.events;
    spill w;
    close_out w.oc;
    Sys.rename w.tmp w.path
  end

let discard_writer w =
  if not w.closed then begin
    w.closed <- true;
    close_out_noerr w.oc
  end;
  try Sys.remove w.tmp with Sys_error _ -> ()

(* --- Reader ------------------------------------------------------------ *)

(* The reader streams the file through one fixed buffer, so its memory
   does not grow with the trace size. The buffer is a window onto the
   file: [chunk_bytes] bytes plus [max_event] bytes of look-ahead into
   the next chunk, plus [max_event] bytes of slack. Whenever file bytes
   remain unread the window is full, so a record starting in the first
   [chunk_bytes] bytes lies wholly inside it; the cursor slides by one
   chunk once it crosses that line. At the end of the file the slack
   past the last valid byte is zero, so a record cut short decodes out
   of zeros (every varint stops at a zero byte) and leaves the cursor
   past [lim]: one test per record then reports the truncation, before
   anything is validated or handed to a sink. *)
let chunk_bytes = 1 lsl 16

(* The longest record, rounded up: a templated one, whose tag, template
   id (a varint of at most nine bytes; a tenth is a varint overflow),
   extra hit bytes and [max_payload] varints come to at most
   1 + 9 + 3 + 16 * 9 = 157 bytes. A tagged event is a tag and at most
   three varints. Definitions are read field by field. *)
let max_event = 192

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

let[@inline] boundary c what =
  if c.pos >= chunk_bytes && c.rest > 0 then slide c what

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

(* The one truncation test of a record, after its fields are read and
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

(* The decoded templates, by id: each [Trace.template], the kinds of
   its payload slots when it has a call ([slot_data], [slot_target],
   [slot_unit]; empty when every slot is a data address) and the
   template that followed it last time. *)
type templates = {
  mutable ts : Trace.template array;
  mutable slots : int array array;
  mutable next : int array;
  mutable nt : int;
}

let slot_data = 0
let slot_target = 1
let slot_unit = 2

(* Reads and checks a template definition (its tag already read) and
   appends it. Every bound the writer keeps is checked, so a record
   against it stays within [max_event] bytes and every home it yields
   lies in the address space. *)
let define_template c tpls ~wait_states ~contention =
  let id = varint c in
  let src = varint c in
  let pc = varint c in
  let nops = varint c in
  decoded c "template definition";
  if id <> tpls.nt then corrupt "template definition out of order";
  if src >= Trace.source_count then corrupt "template source %d" src;
  if pc land lnot 0xFFFF <> 0 then corrupt "template pc %d" pc;
  if nops < 1 || nops > max_ops then corrupt "template of %d events" nops;
  let ops = Array.make nops 0 in
  let fetch = ref pc in
  for i = 0 to nops - 1 do
    boundary c "template definition";
    let kind = varint c in
    let arg =
      if kind = Trace.op_fram_ifetch || kind = Trace.op_sram_ifetch then signed c
      else if kind = Trace.op_cycles then varint c
      else 0
    in
    decoded c "template definition";
    if kind >= Trace.op_kinds then corrupt "template event kind %d" kind;
    if i = 0 && kind <> Trace.op_fram_ifetch && kind <> Trace.op_sram_ifetch then
      corrupt "template does not start with a fetch";
    if kind = Trace.op_fram_ifetch || kind = Trace.op_sram_ifetch then begin
      let home = !fetch + arg in
      if home land lnot 0xFFFF <> 0 then bad_home home;
      fetch := !fetch + 2
    end
    else if kind = Trace.op_cycles && (arg < 1 || arg > max_unstalled) then
      corrupt "template cycles %d" arg;
    ops.(i) <- kind lor (arg lsl 4)
  done;
  let t = Trace.template ~id ~source:src ~pc ~ops ~wait_states ~contention in
  let npay = t.Trace.tp_payload and nbits = t.Trace.tp_nbits in
  if npay > max_payload then corrupt "template payload of %d" npay;
  if nbits > max_hit_bits then corrupt "template of %d hit bits" nbits;
  let units = Trace.payload_slots t [ Trace.op_call ] in
  let slots =
    if Array.length units = 0 then [||]
    else begin
      let slots = Array.make npay slot_data in
      Array.iter
        (fun u ->
          slots.(u - 1) <- slot_target;
          slots.(u) <- slot_unit)
        units;
      slots
    end
  in
  if id = Array.length tpls.ts then begin
    let n = max 64 (2 * id) in
    let grow a fill =
      let b = Array.make n fill in
      Array.blit a 0 b 0 id;
      b
    in
    tpls.ts <- grow tpls.ts t;
    tpls.slots <- grow tpls.slots [||];
    tpls.next <- grow tpls.next (-1)
  end;
  tpls.ts.(id) <- t;
  tpls.slots.(id) <- slots;
  tpls.next.(id) <- -1;
  tpls.nt <- id + 1;
  id

(* The decode loop calls the sink's callbacks directly without
   materializing [Trace.event] values, so a scan allocates nothing per
   event. This is the hot path the record-once / replay-many speedup
   rests on. The tags are matched as literals (see "Tag bytes" above),
   which compiles to one jump table. A templated record is read and
   checked whole, then handed to the sink's [templated] callback, or
   expanded into its template's events by [Trace.expand]. *)
let iter path ~make =
  with_cursor path (fun c ->
      let header = decode_preamble c in
      let v = make header in
      let strings = { tbl = [||]; n = 0 } in
      let tpls = { ts = [||]; slots = [||]; next = [||]; nt = 0 } in
      let whole = v.Trace.templated in
      let ws = header.wait_states and cp = header.contention_penalty in
      (* Bounds from the header, so a damaged unit or home is an error
         here rather than a huge table in a consumer: a function id
         below the function count, a line index within the address
         space, a home inside it ([bad_home]). *)
      let max_unit =
        match header.granularity with
        | Functions sizes -> Array.length sizes - 1
        | Lines bytes -> 0x10000 / bytes
      in
      let payload = Array.make max_payload 0 in
      let prev_pc = ref 0 in
      let prev_addr = ref 0 in
      let last = ref (-1) in
      let count = ref 0 in
      let finished = ref false in
      while not !finished do
        boundary c "event stream";
        let tag = Char.code (Bytes.unsafe_get c.buf c.pos) in
        c.pos <- c.pos + 1;
        if tag >= tag_record then begin
          let id =
            if tag land record_explicit <> 0 then varint c
            else if !last < 0 then -1
            else Array.unsafe_get tpls.next !last
          in
          if id < 0 || id >= tpls.nt then begin
            decoded c "record";
            corrupt "record against template %d of %d" id tpls.nt
          end;
          let t = Array.unsafe_get tpls.ts id in
          let bits = ref (tag land ((1 lsl tag_hit_bits) - 1)) in
          for i = 0 to extra_bit_bytes t.Trace.tp_nbits - 1 do
            bits :=
              !bits
              lor (Char.code (Bytes.unsafe_get c.buf c.pos)
                  lsl (tag_hit_bits + (8 * i)));
            c.pos <- c.pos + 1
          done;
          (* The payload, resolved: data addresses made absolute and a
             call's unit back to -1 for none. *)
          let slots = Array.unsafe_get tpls.slots id in
          if Array.length slots = 0 then
            for j = 0 to t.Trace.tp_payload - 1 do
              let a = !prev_addr + unzigzag (varint c) in
              prev_addr := a;
              Array.unsafe_set payload j a
            done
          else
            for j = 0 to t.Trace.tp_payload - 1 do
              let x = varint c in
              match Array.unsafe_get slots j with
              | 0 (* data *) ->
                  let a = !prev_addr + unzigzag x in
                  prev_addr := a;
                  Array.unsafe_set payload j a
              | 1 (* call target *) -> Array.unsafe_set payload j x
              | _ (* call unit *) -> Array.unsafe_set payload j (x - 1)
            done;
          decoded c "record";
          let bits = !bits in
          if bits lsr t.Trace.tp_nbits <> 0 then corrupt "hit bits past the template";
          for j = 0 to Array.length slots - 1 do
            let u = Array.unsafe_get payload j in
            if Array.unsafe_get slots j = slot_unit && u > max_unit then
              corrupt "call unit %d out of range" u
          done;
          prev_pc := t.Trace.tp_pc;
          (match whole with
          | Some f -> f t bits payload
          | None -> Trace.expand v t bits payload);
          if !last >= 0 then Array.unsafe_set tpls.next !last id;
          last := id;
          count := !count + Trace.record_events t bits
        end
        else begin
          incr count;
          match tag with
          | 0x00 | 0x01 | 0x02 | 0x03 (* instr, source index in the tag *) ->
              let pc = !prev_pc + signed c in
              decoded c "instr";
              prev_pc := pc;
              last := -1;
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
              let a = !prev_pc + signed c in
              let home = a + signed c in
              decoded c "fram ifetch";
              if home land lnot 0xFFFF <> 0 then bad_home home;
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
              let a = !prev_pc + signed c in
              let home = a + signed c in
              decoded c "sram ifetch";
              if home land lnot 0xFFFF <> 0 then bad_home home;
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
              v.Trace.runtime (Miss_enter { runtime = intern_lookup strings rt })
          | 0x15 (* miss exit *) ->
              let rt = varint c in
              let disp = varint c in
              let fid = signed c in
              decoded c "miss exit";
              v.Trace.runtime
                (Miss_exit
                   {
                     runtime = intern_lookup strings rt;
                     disposition = intern_lookup strings disp;
                     fid;
                   })
          | 0x16 (* eviction *) ->
              let fid = varint c in
              decoded c "eviction";
              v.Trace.runtime (Eviction { fid })
          | 0x17 (* freeze on *) -> v.Trace.runtime (Freeze { on = true })
          | 0x18 (* freeze off *) -> v.Trace.runtime (Freeze { on = false })
          | 0x19 (* cache flush *) -> v.Trace.runtime Cache_flush
          | 0x1A (* block load *) ->
              let nvm = varint c in
              decoded c "block load";
              v.Trace.runtime (Block_load { nvm })
          | 0x1B (* prefetch *) ->
              let fid = varint c in
              decoded c "prefetch";
              v.Trace.runtime (Prefetch { fid })
          | 0x1C (* phase *) ->
              let id = varint c in
              decoded c "phase";
              v.Trace.runtime (Phase { name = intern_lookup strings id })
          | 0x1D (* string definition, not an event *) ->
              decr count;
              let len = varint c in
              decoded c "string definition";
              let s = take c len "string definition" in
              boundary c "string definition";
              let id = varint c in
              decoded c "string definition";
              intern_define strings s id
          | 0x1E (* template definition, not an event *) ->
              decr count;
              last := define_template c tpls ~wait_states:ws ~contention:cp
          | 0x1F (* end marker *) ->
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
        end
      done;
      (header, !count))
