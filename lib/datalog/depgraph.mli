(** Predicate dependency graph shared by stratification, evaluation and
    static analysis.

    Nodes are predicate symbols; one edge per non-builtin body literal,
    labelled with its rule index and body position so diagnostics can
    point back into the source program.  [Program.dependency_graph],
    [Program.sccs] and [Program.stratify] are thin wrappers over this
    module, and the analysis passes use the richer accessors directly. *)

type edge = {
  src : Symbol.t;  (** head predicate of the rule *)
  dst : Symbol.t;  (** predicate of the body literal *)
  negated : bool;
  rule_index : int;
  body_position : int;
}

type t

val of_rules : Rule.t list -> t

val derived : t -> Symbol.Set.t
val edges : t -> edge list

val successors : t -> Symbol.t -> (Symbol.t * bool) list
(** Deduplicated derived-predicate dependencies of a derived predicate,
    in first-occurrence order; the flag marks negated dependencies. *)


val sccs : t -> Symbol.t list list
(** Tarjan's strongly connected components over derived predicates, in
    reverse topological order (callees first). *)

type negative_cycle = { cycle : Symbol.t list; through : edge }
(** A concrete witness that negation occurs in a recursive cycle: the
    predicates along the cycle (first = last conceptually; stored from the
    negative edge's source through the path back to it) and the offending
    negated edge. *)

val negative_cycle : t -> negative_cycle option

val stratify : t -> (Symbol.t -> int, string) result
(** Least stratum assignment for derived predicates such that negative
    dependencies strictly descend; [Error] if negation occurs in a
    cycle. *)

val reachable : t -> Symbol.t list -> Symbol.Set.t
(** Predicates reachable from the roots through rule bodies, positive and
    negative dependencies alike, base predicates included. *)
