(** Incremental view maintenance: keep every derived relation of a
    program's fixpoint up to date under transactions of fact insertions
    and deletions, without recomputing from scratch.

    Every dependency unit (strongly connected component of the predicate
    dependency graph, repaired callees-first — a refinement of the
    stratification, so negation is always over fully-repaired
    predicates), recursive or not, is maintained by {e DRed}
    (delete-and-rederive): overdeletion, rederivation of tuples with
    surviving alternative proofs, then a semi-naive insertion fixpoint.

    All three relation versions a delta rule needs ("old", "mid",
    "new") are expressed as unions of stamp-range views over the single
    stored relation plus the transaction's deleted-tuple relations —
    see {!Engine.Relation} for the deletion discipline. *)

open Datalog

type t

type op = Insert of Atom.t | Delete of Atom.t

exception Budget_exhausted
(** Raised when [max_facts] is exceeded (the materialization, or the
    insertions of one transaction).  After a mid-transaction abort the
    state is unspecified; rebuild with {!create}. *)

val create : ?max_facts:int -> Program.t -> edb:Engine.Database.t -> t
(** Materialize the program's fixpoint over a copy of [edb] (the input
    database is not modified).  Tuples of derived predicates already
    present in [edb] — e.g. magic seed facts — are recorded as
    {e externally asserted}: they stay supported whatever the rules
    derive, and persist until retracted.
    @raise Invalid_argument if the program is not stratifiable. *)

type delta = {
  d_pred : Symbol.t;  (** the touched relation (base or derived) *)
  d_inserted : int;  (** net tuples inserted this transaction *)
  d_deleted : int;  (** net tuples deleted this transaction *)
  d_added : Engine.Tuple.t list option;
      (** the inserted tuples themselves, or [None] when there are more
          than an internal cap (summarizing must stay O(delta)); a
          caller needing the rows then falls back to recomputation *)
}
(** One touched relation's net effect in a transaction's change
    summary.  A relation with both [d_inserted = 0] and [d_deleted = 0]
    is never reported. *)

type summary = delta list
(** A transaction's change summary, sorted by predicate.  The effect is
    net: a tuple DRed overdeletes and then restores — by rederivation,
    below the watermark, or by a recursive unit's insertion fixpoint —
    appears in neither count. *)

val touched : summary -> Symbol.Set.t
val has_deletions : summary -> bool

type stats = {
  probes : int;  (** body-literal match attempts, rederivation checks included *)
  delta_firings : int;  (** delta-rule firings *)
  overdeleted : int;  (** tuples DRed over-deleted before rederivation *)
  rederived : int;  (** over-deleted tuples restored by a surviving proof *)
}
(** The work of one transaction; evaluation counts are {!Engine.Stats.t}. *)

val no_stats : stats
val pp_stats : stats Fmt.t

val apply : ?max_facts:int -> t -> op list -> stats
(** Apply one transaction: all ops take effect atomically (a tuple
    deleted and re-inserted in the same transaction does not churn),
    then every derived relation is repaired.  Ops on base predicates
    update the EDB; ops on derived predicates assert or retract
    external support.  Every unit finishes with the semi-naive
    insertion fixpoint of {!Engine.Fixpoint}, the driver evaluation
    uses.  Returns the transaction's maintenance statistics.
    @raise Invalid_argument on a non-ground atom. *)

val apply_delta : ?max_facts:int -> t -> op list -> stats * summary
(** {!apply}, also returning the transaction's change summary — which
    relations changed and by how much.  This is the information partial
    cache invalidation feeds on; building it costs O(delta). *)

val db : t -> Engine.Database.t
(** The maintained database (EDB and all derived relations).  Treat as
    read-only: external mutation invalidates the maintained state. *)

type image = {
  im_db : Engine.Database.t;
      (** the maintained database; shared, not copied — the snapshot
          writer reads it under the caller's lock *)
  im_external : (Symbol.t * Engine.Tuple.t list) list;
      (** externally asserted tuples (magic seeds), sorted by predicate
          then tuple *)
}
(** Everything of the maintained state that is not recomputable in O(1)
    from the program: the serialization boundary for {!module:Persist}. *)

val image : t -> image
(** Export the maintained state.  Deterministic ordering: the same state
    always yields the same image, so snapshots are byte-stable. *)

val of_image : Program.t -> image -> t
(** Rebuild a maintained state from an {!image} without re-evaluating:
    units are recompiled from the program (cheap, symbolic) and the
    database and external support are adopted as-is — the image
    must come from {!image} of a state maintained for the same program.
    Takes ownership of [im_db].
    @raise Invalid_argument if the program is not stratifiable. *)

val answers : t -> Atom.t -> Engine.Tuple.t list
(** The current tuples matching a query atom, sorted. *)
