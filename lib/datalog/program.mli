(** Programs: finite ordered sets of rules, with dependency analysis.

    Following the paper, a program contains no facts — the extensional
    database lives separately — and base (EDB) predicates never occur in
    rule heads.  Predicates occurring in a head are called derived (IDB). *)

type t = { rules : Rule.t list }

val make : Rule.t list -> t
val rules : t -> Rule.t list
val is_empty : t -> bool
val size : t -> int

val derived : t -> Symbol.Set.t
(** Predicates occurring in some rule head. *)

val base : t -> Symbol.Set.t
(** Predicates occurring only in rule bodies (builtins excluded). *)

val predicates : t -> Symbol.Set.t
val is_derived : t -> Symbol.t -> bool

val rules_for : t -> Symbol.t -> (int * Rule.t) list
(** Rules whose head predicate is the given symbol, with their indices in
    the program (used as rule numbers by the counting transformation). *)

val has_function_symbols : t -> bool
(** True when any rule uses [Term.App] or arithmetic; false means the
    program is Datalog. *)

val well_formed : t -> (unit, string) result
(** All rules well-formed and no base predicate in a head position is
    violated by construction; checks rules pairwise-consistent arities. *)

val depgraph : t -> Depgraph.t
(** The program's predicate dependency graph; see {!Depgraph}. *)

val sccs : t -> Symbol.t list list
(** Strongly connected components of the dependency graph restricted to
    derived predicates, in reverse topological order (callees first).
    A maximal set of mutually recursive predicates is the paper's "block"
    (Section 8). *)

val is_recursive : t -> Symbol.t -> bool
(** True when the predicate depends on itself, directly or transitively. *)

val stratify : t -> (Symbol.t -> int, string) result
(** Stratum assignment for derived predicates such that negative
    dependencies strictly descend; [Error] if negation occurs in a cycle. *)

val rename_pred : (string -> string) -> t -> t
(** Apply a renaming to every predicate name (head and body). *)

val pp : t Fmt.t
val to_string : t -> string
