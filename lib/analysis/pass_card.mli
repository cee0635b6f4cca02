(** Abstract-interpretation cardinality bounds per predicate.

    Each predicate gets a [stat]: an estimated fact count plus a
    per-column distinct-value estimate.  Extensional statistics come
    from a {!profile} of a database when one is available; otherwise
    symbolic defaults stand in.  Rule bodies are evaluated with
    textbook join/projection arithmetic (a bound column keeps
    [1/distinct] of the relation), and recursive SCCs (Tarjan output,
    callees first) run a bounded fixpoint with an extrapolating
    widening: after [k] unstable rounds the last round's growth is
    projected linearly out to [rounds_bound] and capped by the
    predicate's column caps.  The results deliberately over-estimate:
    they are compared against each other by {!Pass_cost}, never used as
    hard limits. *)

open Datalog

type stat = {
  card : float;  (** estimated number of facts *)
  distinct : float array;  (** per-column distinct-value estimates *)
}

type t

(** {1 Extensional profile} *)

type profile
(** What the analysis reads of a database, counted once over value ids:
    each relation's {!stat} (live tuples only) and the universe of
    distinct values, plus the oriented edge arrays and graph shapes
    {!profile_shape} builds on first use.  A profile caches what it has
    computed, so it is only valid while its database is not updated:
    build one per strategy selection. *)

val profile : Engine.Database.t -> profile

val profile_universe : profile -> float
(** Distinct values across all live tuples (at least 2). *)

val analyze :
  ?profile:profile ->
  ?seeds:Atom.t list ->
  ?defaults:bool ->
  ?universe:float ->
  ?col_caps:(Symbol.t -> float array option) ->
  ?rounds_bound:float ->
  Program.t ->
  t
(** [profile] supplies extensional statistics; [seeds] are ground facts
    (magic seeds) counted as if added to the profiled database, their
    arithmetic normalized as {!Engine.Database.add_fact} does.
    [defaults] (default: [profile = None]) makes empty-or-missing base
    relations fall back to symbolic sizes instead of zero.  [universe]
    overrides the distinct-constant count (the profile's by default).
    [col_caps] supplies per-column distinct caps for generated
    predicates whose columns range over something other than the data
    constants (counting indices); unmentioned predicates cap every
    column at the universe.  [rounds_bound] (default: the universe) is
    the round horizon the widening extrapolates to. *)

val universe : t -> float
val measured : t -> bool
(** Whether extensional statistics were available. *)

val widened : t -> Symbol.t list
(** Predicates whose recursive fixpoint did not stabilize and were
    extrapolated; empty means every estimate converged. *)

val stat : t -> Symbol.t -> stat
(** Zero stat for unknown predicates. *)

val total_derived : t -> float
(** Sum of estimated cardinalities over the program's derived predicates. *)

val est_probes : t -> float
(** Estimated join probes for one evaluation to fixpoint: the sum over
    rules of the frontier sizes entering each body literal, under the
    final stats. *)

val est_rounds : t -> float
(** Estimated semi-naive rounds: the deepest recursive SCC's round
    count (widened SCCs report [rounds_bound]). *)

val diagnostics : t -> Diagnostic.t list
(** [W060] when some recursion was widened, [W061] when no extensional
    statistics were available. *)

(** {1 Data-shape analysis}

    Used by {!Pass_cost} to decide whether the counting strategies'
    derivation indices stay bounded: the indices encode the derivation
    path, so they are bounded exactly when the guard descent graph
    reachable from the seeds is acyclic and without path-count
    explosion; its longest path bounds the derivation depth. *)

type shape = {
  acyclic : bool;
  longest : float;  (** longest path (edge count) from the roots; meaningful only when acyclic *)
  total_paths : float;  (** total root-to-node path count, saturating *)
  saturated : bool;  (** the path count hit the saturation bound *)
  reachable : float;  (** nodes reachable from the roots (cyclic included) *)
}

val graph_shape : edges:(int * int) list -> roots:int list -> shape
(** Shape of the subgraph reachable from [roots], over arbitrary integer
    node labels (roots absent from the graph are ignored; when none
    remain, in-degree-0 nodes stand in, and failing that every node).
    Duplicate edges count once per copy in the path counts. *)

val profile_shape :
  profile -> orient:(Symbol.t * bool) list -> roots:Term.t list -> shape
(** {!graph_shape} of the profiled binary relations [orient] names, each
    read forward ([true]) or reversed, from the values of [roots].
    Memoized in the profile by the orientation set and the root values,
    so candidates that walk the same relations from the same seeds
    share one computation. *)
