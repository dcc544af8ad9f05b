(** Durability: an append-only binary write-ahead log plus epoch
    snapshots over a data directory.

    The unit of durability is the accepted mutation batch: one
    CRC32-framed record per committed [ASSERT]/[RETRACT], fsync'd before
    the client sees [OK]. A record carries a monotone sequence number,
    the store epoch after the commit ({!Oodb.Store.epoch} —
    the snapshot watermark), the batch verb, and the batch text
    verbatim. Replaying the records through {!Incremental.Live} in
    sequence order rebuilds the exact model, because each batch was
    validated and committed against the model the preceding records
    produce.

    Snapshots are cut at epoch boundaries: a snapshot file captures the
    live source ({!Incremental.Live.dump_source} — extensional facts
    plus rules) together with the sequence number and epoch of the last
    record it covers. Recovery loads the newest snapshot that validates
    (CRC again), then replays only the WAL suffix with [seq >] the
    snapshot's. The log itself stays append-only — records covered by a
    snapshot are skipped by the sequence filter, never rewritten — so a
    bit-rotten snapshot degrades to an older snapshot (or genesis) plus
    a longer replay, not to data loss.

    Torn tails: a crash mid-append leaves a short or CRC-corrupt frame
    at the end of the log. {!open_dir} scans the log, stops at the first
    frame that fails validation, reports the torn byte count, and
    truncates the file back to the last valid frame boundary — a corrupt
    record is never silently loaded, and the next append continues at a
    clean boundary.

    Fault injection: {!append} exercises {!Fault.Wal_append} and
    {!Fault.Wal_fsync}; {!maybe_snapshot} exercises
    {!Fault.Snapshot_write}. An injected append/fsync failure truncates
    any partial frame before re-raising, so the disk agrees with the
    caller's in-memory rollback. *)

type record = {
  seq : int;  (** monotone, starting at 1 *)
  retract : bool;  (** the batch verb: RETRACT when true, ASSERT otherwise *)
  epoch : int;  (** store epoch after the commit *)
  text : string;  (** the batch, verbatim PathLog text *)
}

type recovery = {
  r_snapshot : (int * int * string) option;
      (** newest valid snapshot: [seq, epoch, source] *)
  r_tail : record list;
      (** valid WAL records with [seq] beyond the snapshot, in order *)
  r_wal_records : int;  (** valid records scanned (prefix included) *)
  r_torn_bytes : int;  (** bytes truncated from the log's torn tail *)
  r_snapshots_skipped : int;
      (** snapshot files that failed CRC/framing and were passed over *)
}

type stats = {
  wal_appends_total : int;  (** records appended since {!open_dir} *)
  wal_bytes : int;  (** current byte length of the log file *)
  snapshots_total : int;  (** snapshots cut since {!open_dir} *)
  last_recovery_ms : float;  (** set by the server via {!set_recovery_ms} *)
}

type t

val wal_path : string -> string
(** The log file inside a data directory: [DIR/pathlog.wal]. *)

(** [open_dir dir] creates [dir] if missing, scans its snapshots and
    write-ahead log, truncates any torn tail, and returns the manager
    (log held open for appends) plus what recovery must do.
    @raise Unix.Unix_error when the directory or log cannot be opened *)
val open_dir : string -> t * recovery

(** Append one committed-batch record and fsync it. The record is
    durable when [append] returns; on any failure (injected or real) the
    partial frame is truncated away before the exception escapes, so
    callers roll back their in-memory commit and the two states agree.
    Returns the record's sequence number.
    @raise Fault.Injected on an armed [wal_append]/[wal_fsync] point
    @raise Unix.Unix_error on a real I/O failure *)
val append : t -> retract:bool -> epoch:int -> string -> int

(** [maybe_snapshot t ~every ~epoch ~source] cuts a snapshot when
    [every] records have been appended since the last one (or since
    {!open_dir}). [source] is forced only when a snapshot is actually
    cut. The file is written to a temp name, fsync'd and renamed, so a
    crash mid-write leaves no half snapshot. Failures (injected
    [snapshot_write] or real I/O) are contained: the WAL still has
    everything, so the cut is skipped and [false] is returned. *)
val maybe_snapshot :
  t -> every:int -> epoch:int -> source:(unit -> string) -> bool

(** Cut a snapshot unconditionally. Same containment as
    {!maybe_snapshot}. *)
val snapshot_now : t -> epoch:int -> source:string -> bool

val stats : t -> stats

val set_recovery_ms : t -> float -> unit

(** Close the log fd. The manager must not be used afterwards. *)
val close : t -> unit
