(** Versioned, checksummed binary snapshots of a whole database.

    A snapshot captures everything needed to reopen a
    [Ivm_eval.Database.t] with {b zero re-evaluation}: the program rules,
    the declared base relations, the semantics flag, the DISTINCT view
    set, and {e every} stored relation — base and derived — with its
    signed derivation counts.  Aggregate indexes are not stored: the
    first maintained batch rebuilds each from its loaded source.

    The byte format (magic ["IVMSNAP1"], version [u32], payload, trailing
    CRC-32 over everything before it) is specified field-by-field in
    [docs/PERSISTENCE.md].  Writing is atomic: the bytes go to a temporary
    file in the same directory, are fsync'd, and renamed over the
    destination, so a crash mid-save leaves the previous snapshot intact.

    [seq] is the write-ahead-log sequence number the snapshot covers
    through: recovery replays only log records with a higher sequence
    (see {!Wal} and {!Store}). *)

exception Corrupt of string

val magic : string
val version : int

(** Encode to bytes (including magic, version and CRC trailer). *)
val encode : seq:int -> Ivm_eval.Database.t -> string

(** Decode and verify; the returned database is fully materialized.
    @raise Corrupt on a bad magic, version, CRC or structure. *)
val decode : string -> Ivm_eval.Database.t * int

(** [save ~path ~seq db] — atomic write-fsync-rename.
    Returns the encoded size in bytes. *)
val save : path:string -> seq:int -> Ivm_eval.Database.t -> int

(** @raise Corrupt as {!decode}; @raise Sys_error if unreadable. *)
val load : path:string -> Ivm_eval.Database.t * int
