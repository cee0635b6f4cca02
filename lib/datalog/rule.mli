(** Horn clauses with an optional stratified-negation extension.

    A rule is [head :- l1, ..., ln] where each literal is a positive or
    negated atom.  The paper's transformations operate on purely positive
    rules; negation is supported by the evaluation engine as an extension
    (the paper defers negation to its reference [6]). *)

type literal = Pos of Atom.t | Neg of Atom.t

type t = { head : Atom.t; body : literal list }

val make : Atom.t -> literal list -> t
val fact : Atom.t -> t
val is_fact : t -> bool

val atom_of_literal : literal -> Atom.t
val is_positive : literal -> bool
val map_literal : (Atom.t -> Atom.t) -> literal -> literal

val positive_body : t -> Atom.t list
(** The atoms of positive body literals, in order. *)

val body_atoms : t -> Atom.t list
(** Atoms of all body literals, in order, sign dropped. *)

val vars : t -> string list
(** Variables of head and body in first-occurrence order (head first). *)

val body_vars : t -> string list

val unrestricted_head_vars : t -> string list
(** Head variables that occur in no positive body literal — the rule is
    unsafe for plain bottom-up evaluation unless a rewriting binds them. *)

val unrestricted_negated_vars : t -> (string * Atom.t) list
(** Variables of negated literals that occur in no positive body literal,
    with the offending literal's atom; always an error. *)

val well_formed : t -> (unit, string) result
(** Checks that every variable of a negated literal occurs in a positive
    literal (range restriction).  The paper's (WF) condition — head
    variables occur in the body — is deliberately {e not} enforced: the
    paper's own appendix programs (list reverse) violate it, relying on
    bindings arriving by unification with the call.  Rules violating (WF)
    are unsafe for naive bottom-up evaluation; the engine reports this
    dynamically, and the magic transformations repair it with guards. *)

val connected_components : t -> Atom.t list list
(** Partition of the body atoms of a rule into connectivity classes: two
    atoms are connected when they are linked by a chain of shared
    variables (Section 1.1 of the paper).  Ground atoms form singleton
    components. *)

val is_connected : t -> bool
(** Condition (C): the head and all body atoms form a single connected
    component (trivially true for empty bodies). *)

val rename_apart : suffix:string -> t -> t
(** Rename every variable by appending [suffix]; used to avoid capture. *)

val apply : Subst.t -> t -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : t Fmt.t
val to_string : t -> string
