(** Mutable relations: sets of ground tuples of a fixed arity, with hash
    indexes built on demand for each binding pattern used by a lookup.

    An index for pattern [p] (a boolean array, [true] = bound position)
    maps the projection of a tuple on the bound positions to the tuples
    with that projection; it is kept up to date by subsequent inserts.

    Tuples are also kept in an insertion log and stamped with their log
    position.  A stamp range [\[lo, hi)] denotes the relation as it was
    between two past moments, which lets the semi-naive engine read the
    "old", "delta" and "new" versions of one stored relation without
    maintaining and merging separate per-round copies ({!Eval}).

    Deletion ({!remove}) tombstones the tuple's log slot without reusing
    its stamp; re-inserting the tuple later appends a fresh entry with a
    fresh stamp.  Range views therefore stay coherent across updates: a
    watermark [w] taken after a batch of deletions and before a batch of
    insertions splits the relation into the post-deletion state
    [\[0, w)] and the inserted delta [\[w, size)] — the discipline the
    incremental maintenance layer ({!module:Incr}) builds on. *)

type t

val create : int -> t
(** [create arity] is a fresh empty relation. *)

val arity : t -> int

val cardinal : t -> int
(** Number of live tuples (removed tuples excluded). *)

val size : t -> int
(** Current insertion stamp: tuples added from now on get stamps
    [>= size r].  Equal to {!cardinal} only while no tuple has been
    removed — stamps are never reused, so [size] never decreases. *)

val add : t -> Tuple.t -> bool
(** Insert; returns [true] iff the tuple is new.  The relation keeps
    [t] itself: the caller must not modify it afterwards. *)

val add_borrowed : t -> Tuple.t -> bool
(** {!add} for a tuple the caller will reuse (the head buffer of
    {!Plan.run}).  One probe of the stamp table, with [t] as given,
    either finds the tuple (a duplicate: nothing is allocated or
    written) or ends on the slot a new tuple takes; only then is [t]
    copied, and the copy is logged and indexed. *)

val remove : t -> Tuple.t -> bool
(** Delete; returns [true] iff the tuple was present.  The tuple's log
    slot is tombstoned (its stamp is not reused) and it is dropped from
    every index; a later {!add} of the same tuple gets a fresh stamp. *)

val mem : t -> Tuple.t -> bool

val mem_in : t -> lo:int -> hi:int -> Tuple.t -> bool
(** Membership in the stamp range [\[lo, hi)]. *)

val iter : (Tuple.t -> unit) -> t -> unit
(** Iterate the live tuples in insertion order.  Tuples added during the
    traversal are not visited. *)

val iter_in : t -> lo:int -> hi:int -> (Tuple.t -> unit) -> unit
(** Iterate the live tuples with stamps in [\[lo, hi)], oldest first. *)

val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> Tuple.t list

val lookup : t -> pattern:bool array -> key:Tuple.t -> Tuple.t list
(** Tuples whose projection on the [true] positions of [pattern] equals
    [key] (which has one entry per bound position, in order).  An
    all-false pattern enumerates the relation. *)

val iter_matching : t -> pattern:bool array -> key:Tuple.t -> (Tuple.t -> unit) -> unit
(** Streaming {!lookup}: applies the callback to every matching tuple
    without materializing a list.  An all-false pattern streams the whole
    relation; otherwise the bucket of the on-demand index for [pattern]
    is traversed in place, newest first.  The traversal sees a snapshot:
    tuples the callback inserts (into any relation, including this one)
    are not visited.  A bucket traversal still visits the tuples the
    callback removes from this relation; a log traversal skips them. *)

val iter_matching_in :
  t -> pattern:bool array -> key:Tuple.t -> lo:int -> hi:int -> (Tuple.t -> unit) -> unit
(** {!iter_matching} restricted to the stamp range [\[lo, hi)]. *)

val prepare_index : t -> bool array -> unit
(** Build the index for [pattern] now if it does not exist (an all-false
    pattern needs none).  Indexes are otherwise created lazily by the
    first matching probe — a hidden write.  A writer that hands the
    relation to concurrent readers must call this, under its write lock,
    for every pattern those readers will probe, so that an indexed read
    ({!probe_in}) never mutates the relation it reads. *)

val indexed : t -> bool array -> bool
(** Does a probe on [pattern] need no index construction — the pattern
    is all-false, or its index exists? *)

val probe_in :
  t -> pattern:bool array -> key:Tuple.t -> lo:int -> hi:int -> (Tuple.t -> unit) -> unit
(** {!iter_matching_in} for concurrent readers: it never builds an index,
    so it never writes to the relation.  An all-false pattern iterates
    the log range.
    @raise Invalid_argument if [pattern] is bound and its index was not
    prepared ({!prepare_index}). *)

val copy : t -> t
(** A fresh relation with the same tuples, re-stamped in insertion order,
    and no indexes.  When nothing was ever removed the stamps are already
    dense and the copy is three array copies; otherwise it compacts. *)

val of_log : arity:int -> log:Tuple.t array -> dead:Bytes.t -> t
(** Rebuild a relation from an insertion log and its dead-slot bitset:
    [log.(s)] is the tuple stamped [s], and [dead.(s) = '\001'] iff that
    slot was removed.  The stamp table is reconstructed from the live
    slots, and no indexes exist yet (they are rebuilt lazily on first
    probe).

    The snapshot writer emits the live tuples in stamp order with an
    all-zero bitset, so a reload renumbers the stamps densely
    ([size = cardinal]); snapshots of older builds hold tombstoned slots
    and load as written.  Renumbering is safe because no stamp outlives
    a commit: maintenance watermarks, fixpoint marks and published
    read snapshots are all recaptured after it.  Live tuples keep their
    relative order, so iteration and index-bucket order are unchanged.

    The relation takes ownership of [log] and [dead] without copying
    them: it stores both and writes to them on later {!add} and
    {!remove} calls, so the caller must not read or modify either array
    afterwards.  @raise Invalid_argument on a length or arity mismatch,
    or if two live slots hold the same tuple. *)

val pp : t Fmt.t
