(** Sideways information-passing strategies (Section 2 of the paper).

    A sip for a rule (with respect to a head adornment) is a labeled graph
    whose arcs [N -> q] with label [chi] mean: the join of the predicates
    in [N] (the rule head restricted to its bound arguments, written
    [p_h], and/or body literals) supplies bindings for the variables in
    [chi], which are passed to body literal [q] to restrict its
    evaluation.

    The conditions of the paper are enforced by {!validate}:
    (1) nodes are the head or body literals;
    (2i) every label variable appears in the tail;
    (2ii) every tail member is connected to a label variable;
    (2iii) every label variable appears in an argument of the target all
    of whose variables are labeled, and at least one such argument exists;
    (3) the induced precedence relation is acyclic.

    The generalized notation of the paper (arcs entering only derived
    predicates, with base predicates folded into the tails) is what the
    built-in strategies construct; arcs into base literals are accepted by
    {!validate} but ignored by the transformations. *)

open Datalog

type node =
  | Head  (** the special predicate [p_h] (head bound arguments) *)
  | Body of int  (** 0-based index into the rule's body literal list *)

type arc = {
  tail : node list;  (** N, in body order (Head first if present) *)
  target : int;  (** body index of the literal receiving bindings *)
  label : string list;  (** chi, the variables passed along the arc *)
}

type t = { arcs : arc list }

val node_equal : node -> node -> bool

val empty : t
(** The sip with no arcs: no information is passed (all body adornments
    are free, and rewriting degenerates to the original program plus a
    seed). *)

val arcs_into : t -> int -> arc list

val incoming_label : t -> int -> string list
(** Union of the labels of all arcs entering a body literal (the paper's
    [chi_i]); empty when no arc enters it. *)

val validate : Rule.t -> Adornment.t -> t -> (unit, string) result
(** Check conditions (1), (2i-iii) and (3) against the rule and the head
    adornment.  Head bound variables are the variables occurring in head
    arguments marked bound. *)

val ordering : Rule.t -> t -> int list
(** A total ordering of the body literal indices satisfying condition
    (3'): tails precede targets, sip participants precede non-participants,
    and the original literal order breaks ties.
    @raise Invalid_argument if the precedence relation is cyclic. *)

val compare_sips : t -> t -> [ `Equal | `Less | `Greater | `Incomparable ]
(** Containment order of Section 2.1: [`Less] when the first sip is
    properly contained in the second (the first is "more partial"). *)

(** {1 Built-in strategies} *)

type strategy = derived:Symbol.Set.t -> Rule.t -> Adornment.t -> t
(** A sip chooser: given the derived predicates of the program, a rule and
    the head adornment it is invoked with, produce a sip. *)

val full_left_to_right : strategy
(** The paper's sip (IV): information passes left to right and every arc
    carries all bindings available so far (a compressed, full sip).  This
    is the strategy used by the appendix examples. *)

val chain_left_to_right : strategy
(** The paper's partial sip (V): each derived literal receives bindings
    only from the closest preceding supplier (the previous derived literal
    or the head) plus the intervening base literals — "past" information
    is not carried along. *)

val head_only : strategy
(** Arcs only from the head: query constants are pushed into body
    literals but bindings obtained from body predicates are not passed
    sideways. *)

val none : strategy
(** {!empty} for every rule. *)

val strategy_of_string : string -> strategy option
(** ["full" | "chain" | "head-only" | "none"]. *)

val pp : rule:Rule.t -> t Fmt.t
(** Print in the paper's notation, e.g.
    [{sg_h, up} -Z1-> sg.1]. *)
