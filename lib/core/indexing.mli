(** Index-argument bookkeeping shared by the counting transformations
    (Sections 6 and 7).

    Two encodings are supported:

    - [Path] (the default, and the one every counting method evaluates
      with) — the dynamic identifiers suggested in Section 11 (after
      Vieille): with [m] adorned rules (numbered from 1) and [t] the
      maximum body length, expanding body position [j] (1-based) of rule
      number [i] maps the guard indices [(I, K, H)] to
      [(s(I), k(i, K), h(j, H))].  Structural matching replaces index
      arithmetic, so derivations of any depth work; the growth of the
      terms still makes counting diverge on cyclic data, as it must.
    - [Numeric] — the paper's printed form, [(I+1, K*m+i, H*t+j)], kept
      as the reference the appendix listings are checked against.  [K]
      and [H] grow as [m^depth], so evaluations deeper than ~62 overflow
      native integers. *)

open Datalog

type encoding = Numeric | Path

type t

val fields : int
(** Index arguments that lead every indexed and counting atom: 3. *)

val create : ?encoding:encoding -> Adorn.t -> Adorn.adorned_rule -> t
(** Fresh index variable names for one adorned rule (avoiding its
    variables) plus the program-wide bases [m] and [t].  [encoding]
    defaults to [Path]. *)

val rule_count : Adorn.t -> int
val position_base : Adorn.t -> int

val guard_indices : t -> Term.t list
(** [[I; K; H]] as variables. *)

val body_indices : t -> rule_number:int -> position:int -> Term.t list
(** [[s(I); k(i, K); h(j, H)]] (path) or [[I+1; K*m+i; H*t+j]] (numeric)
    for 1-based rule number [i] and body position [j]. *)

val seed_indices : t -> Term.t list
(** [[0; e; e]] (path) or [[0; 0; 0]] (numeric). *)
