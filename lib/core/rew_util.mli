(** Helpers shared by the four rewriting algorithms. *)

open Datalog

type lit_class =
  | Derived of { orig_pred : string; adornment : Adornment.t; atom : Atom.t }
      (** positive occurrence of a derived predicate (atom has its adorned
          name) *)
  | Base of Atom.t
  | Builtin of Atom.t
  | Negated of Atom.t

val orig_pred : Naming.t -> string -> string
(** Original predicate name behind an adorned name (identity for base and
    all-free-adorned predicates). *)

val classify : naming:Naming.t -> Adorn.adorned_rule -> int -> lit_class
(** Classification of the [i]-th body literal of an adorned rule. *)

val bound_args : Adornment.t -> Atom.t -> Term.t list
(** The atom's arguments at bound positions ([theta^b]). *)

val head_bound_args : Adorn.adorned_rule -> Term.t list
(** Bound arguments of the rule's head ([chi^b]). *)

val prune_redundant :
  sip:Sip.t -> (Rewritten.lit_origin * 'a) list -> (Rewritten.lit_origin * 'a) list
(** Proposition 4.2, shared by the magic and counting rewrites: drop the
    [Tail_magic] literal of a node [n] when the body also has a [Guard]
    or [Tail_magic] literal for a node [m <> n] with [m => n]. *)

val last_arc_target : Adorn.adorned_rule -> int option
(** Index of the last body literal with an incoming sip arc (the paper's
    [q_m]), assuming the body is sip-ordered. *)

val seed_atom : Naming.t -> Adorn.t -> Atom.t option
(** The magic seed [magic_q^a(c)] for the query, or [None] when the query
    has no bound arguments. *)

val sup_vars : simplify:bool -> Adorn.adorned_rule -> int -> string list
(** [phi_i] (1-based): the variables stored by the [i]-th supplementary
    predicate — head bound-argument variables plus the variables of body
    literals [1..i-1], trimmed (when [simplify]) to those still needed by
    the head or by literals [i..n] (Sections 5 and 7). *)
