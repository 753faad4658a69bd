(** A keyed, crash-safe append log: the one on-disk store behind the
    DSE memo ({!Dse.run}'s [store]) and the campaign progress
    checkpoint ([Faultinject.Campaign.run]'s [progress_file]).

    The file is a magic line (store kind and format version), a
    fingerprint line (the configuration the entries belong to), then
    records, each a 4-byte big-endian payload length, the 16-byte
    {!Digest.string} of the payload, and the payload: the [Marshal]
    encoding of one [(key, value)] pair. Later records for a key
    supersede earlier ones. Loading stops at the first record whose
    frame does not check (a torn tail, a flipped byte) before its
    payload reaches [Marshal]; the records from there on are dropped,
    which costs a recompute, never a wrong entry.

    Opening compacts: the loaded entries are written to [PATH.tmp],
    synced and renamed over [PATH], which is then reopened for
    appending. A kill at any instant leaves either the old file or the
    compacted one; a leftover [PATH.tmp] is overwritten. One writer at
    a time. Values are unmarshalled unchecked, so the magic and the
    fingerprint must pin every type stored under them. *)

type ('k, 'v) t

type error =
  | Not_a_store of string
      (** the file at this path is non-empty and does not start with
          the expected magic line *)
  | Fingerprint_mismatch of string
      (** the file at this path was written under another fingerprint *)

val open_ :
  magic:string ->
  fingerprint:string ->
  string option ->
  (('k, 'v) t, error) result
(** Load and compact the store at the path, creating it when missing
    or zero-length. [None] gives a plain in-memory table that never
    touches disk. [magic] and [fingerprint] must not contain a
    newline. File-system failures raise [Sys_error]. *)

val find : ('k, 'v) t -> 'k -> 'v option
val mem : ('k, 'v) t -> 'k -> bool

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Bind the key in memory and append its record (buffered until
    {!flush} or {!close}). *)

val flush : ('k, 'v) t -> unit

val close : ('k, 'v) t -> unit
(** Flush and close the file; idempotent. The table stays readable. *)
