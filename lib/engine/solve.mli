(** Body solving over substitutions: the engine of the
    labelled oracles ({!Eval.seminaive_reference}, the top-down
    evaluators, derivation checking and the Section 9 optimality check),
    independent of the compiled {!Plan} executor.

    A body is solved against relation sources by nested index joins: each
    positive literal is instantiated with the current substitution, its
    ground argument positions become an index key, and the remaining
    arguments are matched against the retrieved tuples.  Builtin
    comparison literals are evaluated natively; negated literals are
    checked against a (complete) source.  Both are filters, run as the
    compiled executor runs them: at the first point where they are ready
    (all arguments bound; for [=], one side), never before their written
    position ({!select}). *)

open Datalog

type source = Symbol.t -> Relation.t option
(** Where to read tuples for a given predicate; [None] means empty. *)

exception Unsafe of string
(** Raised when a builtin or negated literal never becomes ready (only
    such filters remain), or when a rule derives a non-ground head. *)

val fire_rule :
  ?stats:Stats.t ->
  source:(int -> source) ->
  neg_source:source ->
  on_fact:(Atom.t -> unit) ->
  Rule.t ->
  unit
(** Solve the rule body from the empty substitution and emit the (ground,
    arithmetic-evaluated) head instance for every solution. *)

val select : lit:('g -> Rule.literal) -> Subst.t -> 'g list -> ('g * 'g list) option
(** [select ~lit subst goals] picks the goal to solve next from a
    left-to-right goal list: the first that is a relation literal or a
    ready filter, with the rest of the list in order.  [None] on an empty
    list.  @raise Unsafe when only filters that are not ready remain. *)

val match_against : ?stats:Stats.t -> source -> Atom.t -> Subst.t -> Subst.t list
(** All substitution extensions matching one positive atom. *)

val eval_builtin : Atom.t -> Subst.t -> (Subst.t -> unit) -> unit
(** Evaluate a builtin comparison literal under a substitution, calling the
    continuation on success ([=] may extend the substitution).
    @raise Unsafe when a non-[=] builtin is insufficiently instantiated. *)
