(** Epoch-stamped read snapshots of a database.

    A snapshot captures, for every relation, the insertion-stamp
    watermark at capture time; reads then go through the stamp-range
    views of {!Relation} ([iter_in]/[mem_in] over [\[0, w)]) — the same
    stamp ranges the semi-naive engine reads its "old" and "delta"
    views through, lifted into a first-class surface.

    A snapshot is {e not} a copy: it aliases the live relations.  Tuples
    inserted after capture carry stamps [>= w] and are invisible, so the
    snapshot is stable under pure insertion.  Deletion, however,
    tombstones a slot {e inside} [\[0, w)] — a writer that deletes (or a
    maintenance transaction, which may) must therefore be excluded while
    snapshot readers are active, and publish a fresh capture afterwards.
    The serving layer ({!module:Server}) enforces exactly that with a
    write-preferring reader/writer lock and an epoch counter: readers
    pin the published snapshot under the read lock, writers republish
    under the write lock.  Bound reads probe the relations' hash
    indexes, filtered to the [\[0, w)] stamp range; those indexes are
    built only by {!prepare}, which the publisher calls under its write
    lock.  A read never builds an index (an unprepared bound pattern
    raises), so concurrent readers never mutate the relations they
    share. *)

open Datalog

type t

val capture : epoch:int -> Database.t -> t
(** Record the current watermark of every relation of the database,
    tagged with the publisher's epoch. *)

val epoch : t -> int

val watermark : t -> Symbol.t -> int
(** The captured insertion stamp for a symbol; [0] for relations the
    database did not hold at capture time. *)

val iter : t -> Symbol.t -> (Tuple.t -> unit) -> unit
(** Live tuples of the symbol's relation with stamps below the
    watermark, oldest first. *)

val fold : t -> Symbol.t -> (Tuple.t -> 'a -> 'a) -> 'a -> 'a

val mem_tuple : t -> Symbol.t -> Tuple.t -> bool

val mem : t -> Atom.t -> bool
(** Membership of a ground atom ([false] when some component was never
    interned — such a tuple occurs in no relation). *)

val cardinal : t -> Symbol.t -> int
(** Live tuples below the watermark (counts the view, not the relation),
    recorded at capture: O(1). *)

val total : t -> int
(** Sum of {!cardinal} over all captured relations. *)

val prepare : t -> Atom.t -> unit
(** Build the index {!matching} probes for the atom's binding pattern
    (its ground arguments are bound) on the captured relation, if it
    does not exist yet.  This writes to the shared relation: call it
    only where no reader can be active (the publisher's write lock).
    A no-op for an all-variable atom or a relation the snapshot lacks. *)

val prepared : t -> Atom.t -> bool
(** Can {!matching} read the atom without raising — its pattern is
    prepared, all-variable, or the snapshot lacks the relation? *)

val matching : t -> Atom.t -> Tuple.t list
(** The snapshot tuples of the atom's predicate whose components match
    the atom's arguments (variables bind, constants must be equal),
    sorted.  A bound atom probes the index {!prepare} built, with a key
    looked up without interning, and checks repeated variables and
    non-ground compound arguments on the bucket only; an all-variable
    atom iterates the log.  Neither builds an index, so reads are safe
    from any number of concurrent readers.
    @raise Invalid_argument if the atom is bound and its pattern was
    not prepared. *)
