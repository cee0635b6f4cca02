(** Generalized Counting (Section 6 of the paper).

    Counting refines magic sets by recording {e how} each binding was
    reached: every adorned derived predicate with a bound argument is
    extended with three index arguments (I, K, H) encoding the derivation
    depth, the sequence of rules applied, and the sequence of body
    positions expanded.  Counting predicates [cnt_p^a] play the role of
    magic predicates, with matching indices.  The indices enable the
    semijoin optimizations of Section 8 but provide no extra selectivity
    by themselves: projecting them out yields exactly the facts of the
    magic-sets program (tested in the suite).

    The indices are the path terms of Section 11 by default: expanding
    body position [j] of rule [i] maps [(I, K, H)] to
    [(s(I), k(i, K), h(j, H))], so derivations of any depth evaluate.
    [~encoding:Numeric] gives the paper's printed form instead: with [m]
    adorned rules (numbered from 1) and [t] the maximum body length,
    [(I+1, K*m+i, H*t+j)], which overflows native integers past depth
    ~62.  The choice cannot change answers: the index fields carry no
    selectivity.

    The paper's [H/t] notation in modified rules is normalized to a shared
    index variable between guard, head and body (an equivalent program;
    see DESIGN.md).

    Counting diverges when the data is cyclic, or for programs with a
    cyclic argument graph (Theorem 10.3) — e.g. the nonlinear ancestor
    program; use {!Safety.counting_terminates} to check, and evaluation
    budgets to cut off.

    @raise Inapplicable for rules whose head has no bound argument but
    whose body contains a bound derived occurrence: counting indices must
    flow from the query. *)

exception Inapplicable of string
(** The counting methods cannot index this program; the message says
    why. *)

val rewrite : ?simplify:bool -> ?encoding:Indexing.encoding -> Adorn.t -> Rewritten.t
(** [encoding] defaults to [Path]; [Numeric] is the paper's printed
    form. *)

(** {1 Building blocks}

    Shared with {!Sup_counting}. *)

open Datalog

val indexed_occurrence :
  naming:Naming.t ->
  Adorn.adorned_rule ->
  int ->
  (string * Adornment.t * Atom.t) option
(** [(original predicate, adornment, adorned atom)] when the [i]-th body
    literal carries index fields (derived, at least one bound argument). *)

val cnt_guard : naming:Naming.t -> Indexing.t -> Adorn.adorned_rule -> Atom.t option
(** [cnt_p^a(I, K, H, chi^b)], or [None] for an unbound head. *)

val indexed_atom :
  naming:Naming.t ->
  Indexing.t ->
  rule_number:int ->
  position:int ->
  string * Adornment.t * Atom.t ->
  Atom.t
(** [q_ind^a(s(I), k(i, K), h(j, H), theta)]. *)

val cnt_atom :
  naming:Naming.t ->
  Indexing.t ->
  rule_number:int ->
  position:int ->
  string * Adornment.t * Atom.t ->
  Atom.t
(** [cnt_q^a(s(I), k(i, K), h(j, H), theta^b)]. *)

val check_supported : naming:Naming.t -> Adorn.adorned_rule -> unit
(** @raise Inapplicable on rules the counting methods cannot index. *)

val seed : naming:Naming.t -> ?encoding:Indexing.encoding -> Adorn.t -> Atom.t option
(** [cnt_q^a(0, e, e, c)] (path) or [cnt_q^a(0, 0, 0, c)] (numeric). *)

val indexed_query : naming:Naming.t -> Adorn.t -> Atom.t * int
(** Query over the indexed predicate (3 fresh index variables prepended)
    and the number of index fields (0 when the query has no bound
    arguments). *)
