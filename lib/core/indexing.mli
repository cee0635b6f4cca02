(** Index-argument bookkeeping shared by the counting transformations
    (Sections 6 and 7).

    Two encodings are supported:

    - [Numeric] — the paper's encoding: with [m] adorned rules (numbered
      from 1) and [t] the maximum body length, expanding body position
      [j] (1-based) of rule number [i] maps the guard indices [(I, K, H)]
      to [(I+1, K*m+i, H*t+j)].  [K] and [H] grow exponentially with
      derivation depth, so evaluations deeper than ~62 overflow native
      integers and are reported as divergent.
    - [Path] — the dynamic identifiers suggested in Section 11 (after
      Vieille): the same information as structured terms,
      [(s(I), k(i, K), h(j, H))].  Structural matching replaces index
      arithmetic, no overflow can occur, and deep derivations work; the
      growth of the terms still makes counting diverge on cyclic data,
      as it must. *)

open Datalog

type encoding = Numeric | Path

type t

val create : ?encoding:encoding -> Adorn.t -> Adorn.adorned_rule -> t
(** Fresh index variable names for one adorned rule (avoiding its
    variables) plus the program-wide bases [m] and [t].  [encoding]
    defaults to [Numeric]. *)

val rule_count : Adorn.t -> int
val position_base : Adorn.t -> int

val guard_indices : t -> Term.t list
(** [[I; K; H]] as variables. *)

val body_indices : t -> rule_number:int -> position:int -> Term.t list
(** [[I+1; K*m+i; H*t+j]] (numeric) or [[s(I); k(i, K); h(j, H)]] (path)
    for 1-based rule number [i] and body position [j]. *)

val seed_indices : t -> Term.t list
(** [[0; 0; 0]] (numeric) or [[0; e; e]] (path). *)

