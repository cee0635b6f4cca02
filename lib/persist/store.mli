(** The one owner of a session's committed state.  A store wraps a live
    {!Incr.Session} and keeps its last committed state in one of two
    backings:
    - {e on disk} ([~dir]): a directory holding one binary snapshot plus
      a write-ahead log;
    - {e in memory} (no [dir]): a shadow EDB — the initial EDB with
      every committed op and installed seed applied — and the current
      query.

    Commit protocol — apply, record, recover.  A transaction or a seed
    install is applied to the live session first.  Only if it succeeds
    is it recorded: a WAL record appended and [fsync]ed, or the shadow
    updated; only then is the commit acknowledged.  If the apply fails
    with [Budget_exhausted] or [Invalid_argument] the session may be
    half-applied, so the store recovers the last committed state — a
    snapshot load plus WAL replay, or an unbounded re-evaluation of the
    shadow — before re-raising.  A failed apply records nothing.  Every
    successful seed install is recorded, even one whose seeds were
    already derived: it still asserts them as external support and makes
    its query the current one, and both are committed state.

    Checkpointing rewrites the snapshot (atomically: tmp + fsync +
    rename) and starts a fresh WAL; it runs every [checkpoint_every]
    journaled records and at {!close}.  Reopening costs O(snapshot size)
    plus a replay of the WAL suffix — no re-evaluation.

    The disk backing serializes with the default rewrite options;
    custom {!Magic_core.Rewrite.options} are refused there (options
    shape the rewrite and are not persisted). *)

open Datalog

type t

val snapshot_path : string -> string
(** [dir/snapshot.magic] *)

val wal_path : string -> string
(** [dir/wal.magic] *)

val program_digest : Program.t -> string
(** Hex MD5 of the program's printed form; stored in snapshot META and
    checked on every reopen. *)

val open_or_create :
  ?strategy:Incr.Session.strategy ->
  ?options:Magic_core.Rewrite.options ->
  ?max_facts:int ->
  ?checkpoint_every:int ->
  ?dir:string ->
  Program.t ->
  Atom.t ->
  edb:Engine.Database.t Lazy.t ->
  t
(** Without [dir], materialize a session over [edb] (strategy defaults
    to [Original]) and keep a copy of [edb] as the shadow.

    With [dir], reopen the store there if a snapshot exists — [edb] is
    then never forced, so a reopen builds no EDB it would throw away;
    the disk state wins — else create it: materialize a fresh session
    over [edb], write the initial snapshot and an empty WAL.  On reopen
    the snapshot's program digest must match [program], and [strategy]
    (unless [Auto]) must match the stored one.  A torn
    WAL tail is truncated; intact records are replayed onto the loaded
    snapshot.  [checkpoint_every] (default 64, [0] = never) bounds the
    WAL between checkpoints.
    @raise Codec.Corrupt on any corruption or mismatch diagnostic.
    @raise Invalid_argument if [dir] is combined with [options]. *)

val session : t -> Incr.Session.t
(** The live session, for reading only: every change must go through
    {!update_delta}, {!query_delta} or {!reset}, or it is neither
    recorded nor rolled back.  The value changes after a recovery or a
    reset; do not keep it across calls. *)

val durable : t -> bool
(** [true] iff the store is backed by a directory. *)

val restored : t -> bool
(** [true] iff the store was reopened from disk (vs freshly created). *)

val replayed : t -> int
(** WAL records replayed over the lifetime of this handle. *)

val wal_records : t -> int
(** Records journaled through this handle since it was opened. *)

val checkpoints : t -> int
(** Checkpoints completed by this handle (the initial snapshot of a
    fresh store counts as one).  Always 0 in memory. *)

val wal_depth : t -> int
(** Records in the WAL since the last checkpoint: what a reopen would
    replay now.  Always 0 in memory. *)

val checkpoint : t -> unit
(** Rewrite the snapshot from the live session and truncate the WAL.  A
    no-op in memory. *)

val update_delta : t -> Incr.Maintain.op list -> Incr.Maintain.stats * Incr.Maintain.summary
(** Commit one transaction: apply, record, or recover and re-raise.
    @raise Incr.Maintain.Budget_exhausted past [max_facts], after the
    last committed state was restored. *)

val update : t -> Incr.Maintain.op list -> Incr.Maintain.stats
(** {!update_delta} without the change summary. *)

val query_delta :
  t -> Atom.t -> Engine.Tuple.t list * Incr.Maintain.stats * Incr.Maintain.summary
(** Make the atom the session's query, committing its seed install like
    a transaction (always recorded: a WAL record on disk, the seeds and
    the current query in memory).
    @raise Incr.Session.Incompatible_query as the session does, with the
    state untouched; use {!reset} to adopt the new query. *)

val query : t -> Atom.t -> Engine.Tuple.t list * Incr.Maintain.stats
(** {!query_delta} without the change summary. *)

val reset : t -> Atom.t -> Incr.Session.t
(** Rebuild for a query the current session cannot serve: re-creates
    the session, with the same resolved strategy, over the current base
    EDB (externally asserted facts of the original program's derived
    predicates are carried; magic seeds are not — the new query plants
    its own) and commits it: a checkpoint on disk, a new shadow in
    memory. *)

val close : t -> unit
(** Final checkpoint, then release file handles.  A no-op in memory. *)
