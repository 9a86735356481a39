(** Binary snapshots of engine state, full and incremental.

    A snapshot file holds one {!Kronos.Engine.snapshot} capture as of
    sequence number [seq]: magic ["KSNP"], a format version, a CRC-32 of
    the body, then the body — [seq], the base sequence number, and the
    capture, encoded with the wire codec.  A {e full} file
    ([snap-<seq>.snap]) has no base and carries every slot; a {e delta}
    file ([delta-<seq>.delta], DESIGN.md §16) carries only the slots
    dirtied since the snapshot at its base — itself a full file or
    another delta, forming a chain that terminates in a full snapshot.
    Both kinds share the one encoder, decoder, validator and writer.
    Files are written to a temporary name, synced, then renamed, so a
    crash mid-write never leaves a readable-but-bogus newest file;
    readers skip corrupt files and fall back to the next older head.

    One format is read and written: {!version}.  A file of any other
    version — including the versions 1–5 that earlier builds wrote — is
    skipped exactly like a corrupt one, so a data directory holding only
    such files recovers nothing from its snapshots. *)

open Kronos

val version : int
(** The one format version written and read. *)

(** {1 Pure encoding} *)

val encode : ?base_seq:int -> seq:int -> Engine.snapshot -> string
(** Encode a full capture, or with [~base_seq] a delta against the state
    at [base_seq]. *)

val decode_any : string -> int * int option * Engine.snapshot
(** [(seq, base_seq, capture)]; [base_seq] is [None] for a full file.
    @raise Kronos_wire.Codec.Decode_error on bad magic, a version other
    than {!version}, checksum mismatch or malformed body. *)

val decode : string -> int * Engine.snapshot
(** {!decode_any} for a full file.
    @raise Kronos_wire.Codec.Decode_error as {!decode_any}, and on a
    delta. *)

(** {1 Snapshot files} *)

val filename : seq:int -> string
val delta_filename : seq:int -> string

val write : ?base_seq:int -> Storage.t -> seq:int -> Engine.t -> unit
(** Capture [engine] and persist it atomically (tmp → sync → rename) for
    [seq]: a full snapshot, or with [~base_seq] the delta of the slots
    dirtied since the last {!Kronos.Engine.snapshot_written} against the
    snapshot at [base_seq].  Does {e not} clear the engine's dirty set —
    call {!Kronos.Engine.snapshot_written} after this returns. *)

val write_bytes : Storage.t -> seq:int -> string -> unit
(** Persist already-encoded full snapshot bytes (state transfer receive
    path). *)

(** {1 Recovery} *)

val load_chain :
  ?config:Engine.config -> Storage.t -> (int * Engine.t * int) option
(** Resolve and restore the newest recoverable snapshot state:
    [(seq, engine, deltas_applied)].  Tries every candidate head newest
    first; a head resolves when its full file is valid or its delta chain
    composes onto a valid full.  [deltas_applied = 0] means a full
    snapshot was used directly. *)

val load_chain_bytes : Storage.t -> (int * string) option
(** The newest recoverable state as {e full} snapshot bytes (state
    transfer send path): a valid full file ships as-is, a delta head is
    composed and re-encoded, so the wire never carries a delta. *)

val compact : Storage.t -> keep:int -> int
(** Retire snapshot files made redundant by newer durable state: deltas
    at or below the newest valid full snapshot, fulls older than the
    newest [keep] (min 1) {e checksum-valid} fulls — so the newest valid
    full always survives, however many newer files have rotted — and
    stray temporaries.  Call {e after} the covering snapshot is durably
    written.  The {!read_manifest} audit record is rewritten {e before}
    any file is removed, so it never names a removed file; unlinking is
    idempotent and recovery ignores missing files, so a crash at any
    point mid-compact is safe.  Returns the number of files removed
    (counted in [durability.snapshots_retired_total]). *)

val read_manifest : Storage.t -> (int * string list) option
(** The compaction audit record: [(head seq, kept file names)] as of the
    last {!compact}.  A hint for operators and checkers only — recovery
    rescans the directory and never trusts the manifest. *)
