(** The versioned binary snapshot: one file holding a whole maintained
    session — the interned {!Engine.Value} pool as a flat array in
    dense-id order, every relation's insertion log with its dead-slot
    bitset, the external seed facts of the maintenance layer, and the
    session metadata (strategy, current query, program digest).

    The writer emits each relation's live tuples only, in stamp order,
    with an all-zero bitset, so a load renumbers the stamps densely
    (nothing depends on a stamp across a commit; see
    {!Engine.Relation.of_log}).  Snapshots of older builds, which kept
    tombstoned slots, load as written.

    Layout (all integers little-endian):
    {v
      "MAGISNAP"  u32 version
      sections, each:  tag (4 ascii bytes)  u32 length  payload  u32 crc32
      in fixed order:  META  VALS  RELS  CNTS  EXTS  END!
    v}

    [CNTS] held support counts in older builds.  It is written empty
    ([u32 0]); on load its frame and checksum are verified and its
    payload ignored, so older snapshots still open.

    Every load failure — bad magic, unknown version, checksum mismatch,
    truncation, malformed payload — raises {!Codec.Corrupt} with the
    file, section and byte offset; a snapshot never loads partially. *)

val version : int

type meta = {
  strategy : string;  (** resolved session strategy, e.g. ["gms"] *)
  query : string;  (** the current query atom, concrete syntax *)
  program_digest : string;
      (** hex MD5 of the original program's printed form: a snapshot
          refuses to load against a different program *)
}

val write : Io.sink -> meta:meta -> Incr.Maintain.image -> unit
(** Serialize through a sink (no sync/close — the caller owns the
    sink's lifecycle, and the fault-injection tests substitute one that
    crashes mid-write). *)

val save : ?sink_of:(string -> Io.sink) -> path:string -> meta:meta -> Incr.Maintain.image -> unit
(** Atomic publication: write to [path ^ ".tmp"], sync, close, rename
    over [path], sync the directory.  A crash at any point leaves the
    previous snapshot intact.  [sink_of] (default {!Io.file}) is the
    fault-injection seam. *)

val load : string -> meta * Incr.Maintain.image
(** Read a snapshot back; O(file size).  Loaded values are re-interned
    into the process's pool (ids are remapped, so a non-empty pool is
    fine).  @raise Codec.Corrupt as described above. *)
