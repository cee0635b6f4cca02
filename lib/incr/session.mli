(** Persistent query sessions: one program, one strategy, a maintained
    database, and interleaved updates and queries.

    With [Original] the whole fixpoint is materialized and maintained.
    With [GMS]/[GSMS] the session materializes the rewritten program of
    the initial query (seed facts recorded as external support); EDB
    updates repair the magic and supplementary relations incrementally,
    and a later query whose adornment yields the {e same} rewritten
    program is served by inserting its seeds as a transaction — the
    magic cone grows by exactly the newly relevant part.  The counting
    strategies are excluded: their index arguments make relations
    query-instance-specific, so there is nothing stable to maintain. *)

open Datalog
module C = Magic_core

type strategy = Original | GMS | GSMS | Auto

type t

exception Incompatible_query of string
(** A new query's rewritten program differs from the session's (its
    binding pattern adorns differently); a new session is needed. *)

val same_program : Program.t -> Program.t -> bool
(** Rule-for-rule equality: a query is compatible with a session iff
    its rewritten program is the [same_program] as the session's. *)

val strategy_of_string : string -> strategy option
val strategy_to_string : strategy -> string

val create :
  ?strategy:strategy ->
  ?options:C.Rewrite.options ->
  ?max_facts:int ->
  Program.t ->
  Atom.t ->
  edb:Engine.Database.t ->
  t
(** Materialize the program (rewritten for the given query under a
    magic strategy) over a copy of [edb].  Default strategy is
    [Original].  [Auto] asks {!Analysis.choose_session_strategy} to pick
    between [GMS] and [GSMS] from the extensional statistics; the
    session then behaves exactly as if created with the resolved
    strategy (see {!strategy}). *)

val update : ?max_facts:int -> t -> Maintain.op list -> Maintain.stats
(** Apply one transaction of EDB insertions/deletions and repair all
    derived (including magic and supplementary) relations. *)

val update_delta :
  ?max_facts:int -> t -> Maintain.op list -> Maintain.stats * Maintain.summary
(** {!update}, also surfacing the transaction's change summary (which
    relations changed, by how much, and the inserted tuples) for
    consumers that invalidate or repair derived views selectively. *)

val query : ?max_facts:int -> t -> Atom.t -> Engine.Tuple.t list * Maintain.stats
(** Make the atom the session's current query and return its answers
    with the maintenance statistics incurred (seed installation under a
    magic strategy; zero-cost under [Original]).
    @raise Incompatible_query under a magic strategy when the query
    adorns to a different rewritten program. *)

val query_delta :
  ?max_facts:int ->
  t ->
  Atom.t ->
  Engine.Tuple.t list * Maintain.stats * Maintain.summary
(** {!query}, also surfacing the change summary of the seed-install
    transaction (empty under [Original], which installs nothing). *)

val answers : t -> Engine.Tuple.t list
(** Answers of the current query against the maintained state; under a
    magic strategy, projected through the rewriting exactly as
    {!C.Rewritten.answers} does. *)

val db : t -> Engine.Database.t

val strategy : t -> strategy
(** The session's strategy; [Auto] is resolved at {!create} time, so
    this is never [Auto]. *)

val rewritten : t -> C.Rewritten.t option
(** The rewriting of the current query; [None] under [Original]. *)

val maintained_program : t -> Program.t
(** The program the session maintains: the rewritten program under a
    magic strategy, the original one under [Original]. *)

val options : t -> C.Rewrite.options
val program : t -> Program.t
(** The original, un-rewritten program the session was created over. *)

type image = {
  i_strategy : strategy;  (** resolved at create time; never [Auto] *)
  i_query : Atom.t;  (** the current query *)
  i_maintain : Maintain.image;
      (** the maintained state — over the {e rewritten} program under a
          magic strategy *)
}
(** The serializable state of a session: what {!module:Persist} writes
    to a snapshot.  The rewritten program itself is not part of the
    image — it is deterministic in (program, query, options) and is
    recomputed symbolically on restore. *)

val image : t -> image

val of_image : ?options:C.Rewrite.options -> Program.t -> image -> t
(** Rebuild a session from an {!image} of a session over the same
    program (and the same [options] — they shape the rewrite and are not
    serialized).  No evaluation runs: cost is unit compilation plus, for
    magic strategies, one symbolic rewrite.
    @raise Invalid_argument if [i_strategy] is [Auto]. *)
